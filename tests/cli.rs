//! The command-line interface's argument handling, run as a process.

use aero_model::ArtifactBuilder;
use std::path::PathBuf;
use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_aerodiffusion_cli")).args(args).output().expect("run the CLI")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aero_cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_flag_no_subcommand_reads_is_refused_by_name() {
    let out = cli(&["lint", "--scale", "smoke", "--baseline", "x"]);
    assert!(!out.status.success(), "lint accepted --baseline");
    assert!(stderr(&out).contains("--baseline"), "{}", stderr(&out));

    // Refused before any training starts: no model directory appears.
    let dir = fresh_dir("unknown_flag");
    let out = cli(&["train", dir.to_str().unwrap(), "--scenes", "1", "--frobnicate"]);
    assert!(!out.status.success(), "train accepted --frobnicate");
    assert!(stderr(&out).contains("--frobnicate"), "{}", stderr(&out));
    assert!(!dir.exists(), "train ran before refusing the flag");
}

#[test]
fn an_unknown_scale_is_refused_not_read_as_smoke() {
    let dir = fresh_dir("unknown_scale");
    let out = cli(&["train", dir.to_str().unwrap(), "--scale", "Paper", "--scenes", "1"]);
    assert!(!out.status.success(), "train accepted --scale Paper");
    assert!(stderr(&out).contains("unknown --scale 'Paper'"), "{}", stderr(&out));
    assert!(!dir.exists(), "train ran before refusing the scale");
}

#[test]
fn inspect_shortens_a_long_value_at_a_char_boundary() {
    let dir = fresh_dir("inspect");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("note.amdl");
    // Byte 48, where a long value is cut, falls inside the first `é`.
    let value = format!("{}{}", "a".repeat(47), "é".repeat(20));
    let mut builder = ArtifactBuilder::new();
    builder.set("note", &value);
    builder.write(&path).unwrap();

    let out = cli(&["model", "inspect", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(&format!("note = {}… (87 bytes)", "a".repeat(47))), "{stdout}");
}

#[test]
fn inspect_into_a_closed_pipe_exits_quietly() {
    let dir = fresh_dir("closed_pipe");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.amdl");
    let mut builder = ArtifactBuilder::new();
    builder.set("note", "a closed pipe");
    builder.add_f32("w", &aero_tensor::Tensor::ones(&[4, 4]));
    builder.write(&path).unwrap();

    // The read end is gone before the CLI starts, so its first write to
    // stdout fails with a broken pipe.
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_aerodiffusion_cli"))
        .args(["model", "inspect", path.to_str().unwrap()])
        .stdout(writer)
        .output()
        .expect("run the CLI");
    assert!(out.status.success(), "status {:?}: {}", out.status, stderr(&out));
    assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
}
