//! `repro` refuses an argument it does not know, instead of running
//! nothing and reporting success.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro starts")
}

#[test]
fn unknown_arguments_exit_2_before_running_anything() {
    for args in [
        &["--bench-servng"][..],
        &["--scale", "small", "fig99"],
        &["--scale", "small", "--runs", "abc", "fig7"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(args[args.len() - 1]) || stderr.contains("--runs"),
            "{stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{args:?} ran: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
