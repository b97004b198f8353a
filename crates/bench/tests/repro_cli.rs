//! Argument contract of the `repro` binary: an option or experiment name
//! it does not know is rejected before anything runs — usage on stderr,
//! exit code 2, nothing on stdout.

use std::process::Command;

#[test]
fn a_bad_argument_is_rejected_before_any_experiment_runs() {
    let cases: [&[&str]; 3] = [
        &["table1", "--bogus"],
        &["table1", "nope"],
        &["--sync", "exact", "table1"], // a flag `repro` used to have
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr:\n{stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: stderr:\n{stderr}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} ran something: stdout:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
