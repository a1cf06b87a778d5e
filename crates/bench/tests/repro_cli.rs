//! The `repro` binary rejects bad flag values and combinations with one
//! line on stderr and exit code 2, never with a panic, and fails when its
//! trace file cannot be written.

use std::process::Command;

#[test]
fn zero_monte_carlo_trials_exit_2_without_a_panic() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--montecarlo", "--trials", "0"])
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.contains("at least 1"), "stderr: {stderr}");
}

/// A non-static policy runs the 2C rotation base, which has no recovery
/// for `--no-recovery` to strip: the pair is a usage error, not a run that
/// silently drops the flag.
#[test]
fn no_recovery_with_a_rotation_policy_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--policy", "soc-skew", "--montecarlo", "--no-recovery"])
        .args(["--trials", "1", "--horizon-s", "60"])
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no report is printed");
    assert!(stderr.contains("--no-recovery"), "stderr: {stderr}");
}

/// Every write to `/dev/full` fails with "no space left on device".
#[cfg(target_os = "linux")]
#[test]
fn trace_to_a_full_device_fails_without_claiming_success() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--exp", "1", "--trace", "/dev/full"])
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(!stderr.contains("trace written"), "stderr: {stderr}");
    assert!(stderr.contains("/dev/full"), "stderr: {stderr}");
}
