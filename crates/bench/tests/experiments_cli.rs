//! `experiments` command-line contract: a failed `--json` write is an
//! error, not a success line.

use std::process::Command;

#[test]
fn json_write_failure_exits_nonzero() {
    let dir = std::env::temp_dir().join(format!("experiments-cli-missing-{}", std::process::id()));
    assert!(!dir.exists(), "{} must not exist", dir.display());
    let path = dir.join("x.json");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig3", "--json"])
        .arg(&path)
        .output()
        .expect("run experiments");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "exit {:?} on an unwritable --json path", out.status.code());
    assert!(!stdout.contains("json results written"), "success line printed:\n{stdout}");
}
