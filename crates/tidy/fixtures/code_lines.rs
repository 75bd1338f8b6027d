//! Fixture: code-line counting. Four lines below hold library code;
//! blank lines, comments, doc comments and the test module do not count.

/// Doc comment: not code.
pub fn one() -> u32 {
    // A line comment: not code.
    /* A block comment
       spanning lines: not code. */

    let s = "a string // that looks like a comment";
    s.len() as u32 /* trailing comment */
}

#[cfg(test)]
mod tests {
    #[test]
    fn not_counted() {
        assert_eq!(super::one(), 37);
    }
}
