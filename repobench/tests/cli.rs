//! The benchmark binary's argument handling: malformed invocations exit
//! non-zero and print no result line.

use std::process::Command;

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let cases: [&[&str]; 5] = [
        &["--workload", "no_such_workload"],
        &["--workload", "all", "--trace", "2"],
        &["--workload", "all", "--seed", "x"],
        &["--workload", "all", "--bogus", "1"],
        &["--seed", "1"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repobench"))
            .args(args)
            .output()
            .expect("the benchmark binary runs");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert!(!out.stderr.is_empty(), "{args:?} gave no reason");
    }
}
