//! The `reproduce` binary's command line: `--stdout` prints exactly the
//! in-process renders, `--kernel` filters the PUMICE study, and argument
//! errors exit 2 without writing anything.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use mve_bench::{artefacts, figures};
use mve_kernels::registry::kernel_by_name;
use mve_kernels::Scale;

/// Runs `reproduce` with `args` in a fresh, empty working directory and
/// returns its output plus that directory.
fn reproduce(tag: &str, args: &[&str]) -> (Output, PathBuf) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("reproduce_cli_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create working directory");
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run reproduce");
    (out, dir)
}

fn is_empty_dir(dir: &Path) -> bool {
    std::fs::read_dir(dir).expect("read dir").next().is_none()
}

#[test]
fn stdout_concatenates_renders_in_only_order_at_any_job_count() {
    let names = ["table1", "table3", "table5", "ablations"];
    let expected: String = names
        .iter()
        .map(|n| artefacts::render(n, Scale::Test).expect("registered"))
        .collect();
    let mut args = vec!["--smoke"];
    for n in names {
        args.extend(["--only", n]);
    }
    args.push("--stdout");
    for jobs in ["1", "3"] {
        let mut with_jobs = args.clone();
        with_jobs.extend(["--jobs", jobs]);
        let (out, dir) = reproduce(&format!("stdout_{jobs}"), &with_jobs);
        assert!(out.status.success(), "jobs {jobs}: {out:?}");
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            expected,
            "jobs {jobs}"
        );
        assert!(is_empty_dir(&dir), "--stdout created files");
    }
}

#[test]
fn kernel_filters_the_pumice_study() {
    let (out, _) = reproduce(
        "kernel",
        &[
            "--only",
            "ext_pumice",
            "--kernel",
            "gemm",
            "--stdout",
            "--smoke",
        ],
    );
    assert!(out.status.success(), "{out:?}");
    let gemm = kernel_by_name("gemm").expect("registered kernel");
    let expected = figures::ext_pumice_report(Scale::Test, &[gemm]);
    assert_eq!(String::from_utf8(out.stdout).unwrap(), expected);
}

#[test]
fn unknown_kernel_exits_2_with_the_registry_vocabulary() {
    let (out, dir) = reproduce(
        "unknown_kernel",
        &["--smoke", "--only", "ext_pumice", "--kernel", "gemz"],
    );
    assert_eq!(out.status.code(), Some(2));
    let vocabulary = kernel_by_name("gemz").err().expect("unknown").to_string();
    assert_eq!(
        String::from_utf8(out.stderr).unwrap().trim_end(),
        vocabulary
    );
    assert!(is_empty_dir(&dir));
}

#[test]
fn kernel_outside_the_selected_set_exits_2() {
    let (out, _) = reproduce(
        "unselected_kernel",
        &["--smoke", "--only", "ext_pumice", "--kernel", "memcpy"],
    );
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("not in the selected extension-study set"),
        "{stderr}"
    );
}

#[test]
fn kernel_without_only_ext_pumice_exits_2() {
    for args in [
        &["--smoke", "--kernel", "gemm"][..],
        &["--smoke", "--only", "fig7", "--kernel", "gemm", "--stdout"][..],
    ] {
        let (out, dir) = reproduce("kernel_without_pumice", args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(is_empty_dir(&dir), "{args:?}");
    }
}

#[test]
fn unknown_flag_exits_2_and_writes_nothing() {
    let (out, dir) = reproduce("typo", &["--smoek"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown argument `--smoek`"), "{stderr}");
    assert!(stderr.contains("--smoke"), "flag list missing: {stderr}");
    assert!(is_empty_dir(&dir), "a typo must not start a run");
}
