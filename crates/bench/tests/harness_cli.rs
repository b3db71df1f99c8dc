//! The harness rejects bad command lines before running anything: each
//! case below exits 2 through `usage()` and prints nothing on stdout.

use std::process::Command;

#[test]
fn bad_flag_values_exit_2_with_empty_stdout() {
    let cases: [&[&str]; 7] = [
        // Every arrival would land at t = 0, so the offered rate reads 0.
        &["loadcurve", "--rate", "inf"],
        &["loadcurve", "--rate", "0"],
        &["loadcurve", "--rate", "x"],
        &["loadcurve", "--zipf-s", "inf"],
        &["loadcurve", "--admission-cap", "0"],
        &["table1", "--no-such-flag"],
        &["no-such-experiment"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_harness"))
            .args(args)
            .output()
            .expect("run harness");
        assert_eq!(out.status.code(), Some(2), "harness {args:?}");
        assert!(out.stdout.is_empty(), "harness {args:?} printed to stdout");
    }
}
