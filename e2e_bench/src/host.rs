//! The host record every result set carries. Two result sets compare
//! only when everything but the code revision matches.

use std::process::Command;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    pub nproc: usize,
    /// `MEMS_FACTOR_THREADS` as set for the run (`unset` otherwise).
    pub factor_threads: String,
    pub rustc: String,
    pub profile: String,
    /// Code revision; `none` outside a git checkout.
    pub git_rev: String,
    pub git_dirty: bool,
}

impl Host {
    pub fn detect() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let factor_threads =
            std::env::var("MEMS_FACTOR_THREADS").unwrap_or_else(|_| "unset".into());
        let git_rev = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into());
        let git_dirty = git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
        Host {
            nproc,
            factor_threads,
            rustc: env!("E2E_RUSTC_VERSION").to_string(),
            profile: env!("E2E_PROFILE").to_string(),
            git_rev,
            git_dirty,
        }
    }

    /// The fields that make two measurements comparable.
    pub fn machine_key(&self) -> (usize, &str, &str, &str) {
        (self.nproc, &self.factor_threads, &self.rustc, &self.profile)
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"MEMS_FACTOR_THREADS\":\"{}\",\"rustc\":\"{}\",\"profile\":\"{}\",\"git_rev\":\"{}\",\"git_dirty\":{}}}",
            self.nproc,
            esc(&self.factor_threads),
            esc(&self.rustc),
            esc(&self.profile),
            esc(&self.git_rev),
            self.git_dirty
        )
    }

    pub fn from_json(doc: &mems_serve::Json) -> Option<Host> {
        let s = |k: &str| {
            doc.get(k)
                .and_then(mems_serve::Json::as_str)
                .map(str::to_string)
        };
        Some(Host {
            nproc: doc.get("nproc").and_then(mems_serve::Json::as_u64)? as usize,
            factor_threads: s("MEMS_FACTOR_THREADS")?,
            rustc: s("rustc")?,
            profile: s("profile")?,
            git_rev: s("git_rev")?,
            git_dirty: matches!(doc.get("git_dirty"), Some(mems_serve::Json::Bool(true))),
        })
    }
}

/// Runs git in the working directory; `None` when it fails (no git,
/// or not a checkout). The child is always waited for.
fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

pub fn esc(s: &str) -> String {
    mems_netlist::report::json_escape(s)
}
