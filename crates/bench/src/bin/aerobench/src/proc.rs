//! Child processes: building with cargo, running the CLI at its
//! defaults, and reaping each child with its peak resident set size.

use aerobench::{fnv1a, FNV_OFFSET};
use std::ffi::{OsStr, OsString};
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// `timeval`s, then `ru_maxrss` (KiB) and thirteen more `long`s.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Wall time from spawn to reap.
    pub wall: Duration,
    /// Exited normally with status 0.
    pub ok: bool,
    /// The child's own peak resident set size, in KiB.
    pub maxrss_kb: u64,
}

impl Exit {
    /// Peak RSS in MiB.
    pub fn rss_mb(&self) -> f64 {
        self.maxrss_kb as f64 / 1024.0
    }
}

/// A spawned child that is killed and reaped if dropped unreaped, so no
/// error path leaves a process behind.
pub struct Guard {
    child: Child,
    started: Instant,
    reaped: bool,
}

impl Guard {
    /// Spawns `cmd`.
    ///
    /// # Errors
    ///
    /// Propagates the spawn failure.
    pub fn spawn(cmd: &mut Command) -> io::Result<Guard> {
        let started = Instant::now();
        Ok(Guard { child: cmd.spawn()?, started, reaped: false })
    }

    /// The child, for taking its pipes.
    pub fn child(&mut self) -> &mut Child {
        &mut self.child
    }

    /// Waits for the child and collects its exit status and peak RSS
    /// (`wait4` reports the child's own `ru_maxrss`, exact even for a
    /// process that lives a few milliseconds).
    ///
    /// # Errors
    ///
    /// Propagates `wait4` failures.
    pub fn reap(mut self) -> io::Result<Exit> {
        self.reap_inner()
    }

    fn reap_inner(&mut self) -> io::Result<Exit> {
        let pid = i32::try_from(self.child.id()).map_err(io::Error::other)?;
        let mut status = 0i32;
        let mut usage = Rusage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
        loop {
            // SAFETY: `status` and `usage` are live, writable and laid out
            // as wait4 expects; `pid` is our own unreaped child.
            let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
            if r == pid {
                break;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        self.reaped = true;
        let exited_zero = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
        Ok(Exit {
            wall: self.started.elapsed(),
            ok: exited_zero,
            maxrss_kb: u64::try_from(usage.maxrss).unwrap_or(0),
        })
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.reap_inner();
        }
    }
}

/// The cargo that launched the benchmark (or the one on `PATH`).
fn cargo() -> Command {
    Command::new(std::env::var_os("CARGO").unwrap_or_else(|| OsString::from("cargo")))
}

/// Runs `cargo build --release --offline -q <args>`; cargo's own output
/// goes to stderr so stdout keeps only the benchmark's lines.
///
/// # Errors
///
/// A spawn failure or a failed build.
pub fn cargo_build(args: &[&str]) -> Result<(), String> {
    let status = cargo()
        .args(["build", "--release", "--offline", "-q"])
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("cargo build {} failed ({status})", args.join(" ")))
    }
}

/// Where cargo puts release binaries: `$CARGO_TARGET_DIR/release`, else
/// `target/release` under the repository root (the working directory).
fn release_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("release")
}

/// The user-facing CLI binary, always run at its defaults.
pub struct Cli {
    bin: PathBuf,
}

impl Cli {
    /// Builds `aerodiffusion_cli` from the repository sources in the
    /// working directory.
    ///
    /// # Errors
    ///
    /// The build failed or the binary is missing afterwards.
    pub fn build() -> Result<Cli, String> {
        cargo_build(&["-p", "aerodiffusion-suite", "--bin", "aerodiffusion_cli"])?;
        let bin = release_dir().join("aerodiffusion_cli");
        if bin.is_file() {
            Ok(Cli { bin })
        } else {
            Err(format!("{} missing after the build", bin.display()))
        }
    }

    /// A command for `args`. The kernel-policy variables are cleared so
    /// the CLI picks its own defaults; stdout is discarded and stderr
    /// passes through.
    pub fn command(&self, args: &[Arg<'_>]) -> Command {
        let mut cmd = Command::new(&self.bin);
        cmd.args(args)
            .env_remove("AERO_THREADS")
            .env_remove("AERO_BACKEND")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        cmd
    }

    /// Runs one CLI invocation to completion.
    ///
    /// # Errors
    ///
    /// Spawn or wait failures (a non-zero exit is reported in [`Exit`]).
    pub fn run(&self, args: &[Arg<'_>]) -> io::Result<Exit> {
        Guard::spawn(&mut self.command(args))?.reap()
    }

    /// Runs a CLI step that must succeed (fixture training, export).
    ///
    /// # Errors
    ///
    /// Spawn failures or a non-zero exit.
    pub fn run_ok(&self, args: &[Arg<'_>]) -> Result<Exit, String> {
        let shown =
            || args.iter().map(|a| a.as_ref().to_string_lossy()).collect::<Vec<_>>().join(" ");
        let exit =
            self.run(args).map_err(|e| format!("spawn aerodiffusion_cli {}: {e}", shown()))?;
        if exit.ok {
            Ok(exit)
        } else {
            Err(format!("aerodiffusion_cli {} exited non-zero", shown()))
        }
    }
}

/// One CLI argument: a string literal, a `String` or a path.
pub type Arg<'a> = &'a dyn AsRef<OsStr>;

/// FNV-1a digest of a directory tree: relative names and contents in
/// sorted order.
///
/// # Errors
///
/// Propagates read failures.
pub fn dir_digest(root: &Path) -> io::Result<u64> {
    fn walk(root: &Path, dir: &Path, hash: &mut u64) -> io::Result<()> {
        let mut entries: Vec<PathBuf> =
            std::fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;
        entries.sort();
        for path in entries {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().into_owned();
            *hash = fnv1a(*hash, rel.as_bytes());
            if path.is_dir() {
                walk(root, &path, hash)?;
            } else {
                *hash = fnv1a(*hash, &std::fs::read(&path)?);
            }
        }
        Ok(())
    }
    let mut hash = FNV_OFFSET;
    walk(root, root, &mut hash)?;
    Ok(hash)
}

/// Checks a binary PPM's geometry: `P6`, the expected size, 8-bit, and
/// exactly `3·w·h` payload bytes.
pub fn ppm_has_size(bytes: &[u8], width: usize, height: usize) -> bool {
    let mut fields = Vec::new();
    let mut pos = 0;
    while fields.len() < 4 && pos < bytes.len() {
        while pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
            pos += 1;
        }
        let start = pos;
        while pos < bytes.len() && !bytes[pos].is_ascii_whitespace() {
            pos += 1;
        }
        fields.push(&bytes[start..pos]);
    }
    // Exactly one whitespace byte separates the header from the payload.
    let payload = bytes.len().saturating_sub(pos + 1);
    let (w, h) = (width.to_string(), height.to_string());
    fields == [b"P6".as_slice(), w.as_bytes(), h.as_bytes(), b"255"]
        && payload == 3 * width * height
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ppm_geometry_check_accepts_only_the_exact_size() {
        let mut good = b"P6\n2 1\n255\n".to_vec();
        good.extend([0u8; 6]);
        assert!(ppm_has_size(&good, 2, 1));
        assert!(!ppm_has_size(&good, 1, 2));
        assert!(!ppm_has_size(&good[..good.len() - 1], 2, 1));
        assert!(!ppm_has_size(b"P5\n2 1\n255\n\0\0", 2, 1));
    }

    #[test]
    fn reaping_reports_status_and_peak_rss() {
        let ok = Guard::spawn(Command::new("true").stdout(Stdio::null())).unwrap().reap().unwrap();
        assert!(ok.ok && ok.maxrss_kb > 0);
        let bad = Guard::spawn(&mut Command::new("false")).unwrap().reap().unwrap();
        assert!(!bad.ok);
    }
}
