//! What every `reproduce` command shares, written once: the error type
//! its runners return, the artifact writer, the chaos-seed fold and the
//! reference product.
//!
//! The `reproduce` binary maps an [`Error`] to its exit status in one
//! place; the command modules only say what went wrong.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use summagen_comm::Backend;
use summagen_matrix::{gemm_naive, DenseMatrix};
use summagen_partition::Shape;

use crate::benchcmd::CheckError;
use crate::json::Json;

/// Why a `reproduce` command failed.
#[derive(Debug)]
pub enum Error {
    /// The invocation is wrong: an unknown argument or a malformed value.
    Usage(String),
    /// A `--check` could not run: a baseline is missing or unreadable.
    Check(CheckError),
    /// A run, a gate, a check or an artifact write failed.
    Failed(String),
}

impl Error {
    /// The process exit status: 2 for a usage error, 1 for anything else.
    pub fn exit_code(&self) -> i32 {
        match self {
            Error::Usage(_) => 2,
            Error::Check(_) | Error::Failed(_) => 1,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Usage(msg) | Error::Failed(msg) => f.write_str(msg),
            Error::Check(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for Error {}

impl From<CheckError> for Error {
    fn from(e: CheckError) -> Self {
        Error::Check(e)
    }
}

/// What a command runner returns.
pub type Outcome<T = ()> = Result<T, Error>;

/// A gate: `Ok` when `ok` holds, otherwise the failure `why` describes.
pub fn ensure(ok: bool, why: impl FnOnce() -> String) -> Outcome {
    if ok {
        Ok(())
    } else {
        Err(Error::Failed(why()))
    }
}

/// A shape's name as a file-name part: `square corner` → `square-corner`.
pub fn shape_slug(shape: Shape) -> String {
    shape.name().replace(' ', "-")
}

/// `<prefix>_<shape>.json` for a run over channels, the names committed
/// baselines use; any other backend adds `_<backend>`, so one directory
/// can hold both sides of a parity run.
pub fn shape_file(prefix: &str, shape: Shape, backend: Backend) -> String {
    let slug = shape_slug(shape);
    match backend {
        Backend::Channel => format!("{prefix}_{slug}.json"),
        other => format!("{prefix}_{slug}_{}.json", other.name()),
    }
}

/// A 64-bit digest as every document spells it: 16 hex digits.
pub fn digest_json(digest: u64) -> Json {
    Json::from(format!("{digest:016x}"))
}

/// An output directory, created once; a failed write names its path.
pub struct Artifacts {
    dir: PathBuf,
}

impl Artifacts {
    /// Creates `dir` (and its parents) if it does not exist yet.
    pub fn create(dir: &Path) -> Outcome<Self> {
        fs::create_dir_all(dir).map_err(|e| Error::Failed(format!("{}: {e}", dir.display())))?;
        Ok(Self {
            dir: dir.to_path_buf(),
        })
    }

    /// Writes `contents` to `name` inside the directory; returns the path.
    pub fn write(&self, name: &str, contents: impl AsRef<[u8]>) -> Outcome<PathBuf> {
        let path = self.dir.join(name);
        fs::write(&path, contents)
            .map_err(|e| Error::Failed(format!("{}: {e}", path.display())))?;
        Ok(path)
    }

    /// The directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// `C = A · B` of two square matrices by the naive triple loop: the
/// yardstick every real run is checked against.
pub fn reference(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let n = a.rows();
    let mut c = DenseMatrix::zeros(n, n);
    gemm_naive(
        n,
        n,
        n,
        1.0,
        a.as_slice(),
        n,
        b.as_slice(),
        n,
        0.0,
        c.as_mut_slice(),
        n,
    );
    c
}

/// The environment variable a CI matrix job sets to add one seed to every
/// chaos grid (`soak`, `degrade`, `crash`).
pub const CHAOS_SEED_ENV: &str = "SUMMAGEN_CHAOS_SEED";

/// The raw value of [`CHAOS_SEED_ENV`], read once per process.
pub fn chaos_env() -> Option<&'static str> {
    static VALUE: OnceLock<Option<String>> = OnceLock::new();
    VALUE
        .get_or_init(|| std::env::var_os(CHAOS_SEED_ENV).map(|v| v.to_string_lossy().into_owned()))
        .as_deref()
}

/// `base` with the seed spelled by `extra` appended, unless `base` already
/// holds it. `None` leaves `base` alone; a value that is not an unsigned
/// integer is a usage error naming it, so a typo cannot quietly run the
/// base seeds only.
pub fn fold_seed(base: &[u64], extra: Option<&str>) -> Outcome<Vec<u64>> {
    let mut seeds = base.to_vec();
    if let Some(raw) = extra {
        let seed = raw.trim().parse::<u64>().map_err(|_| {
            Error::Usage(format!(
                "{CHAOS_SEED_ENV}={raw:?} is not a seed (expected an unsigned integer)"
            ))
        })?;
        if !seeds.contains(&seed) {
            seeds.push(seed);
        }
    }
    Ok(seeds)
}

/// A chaos grid's seeds: `base` plus the environment's extra seed.
pub fn chaos_seeds(base: &[u64]) -> Outcome<Vec<u64>> {
    fold_seed(base, chaos_env())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_seed_fold_covers_unset_new_known_and_malformed() {
        let base = [1, 2, 7];
        assert_eq!(fold_seed(&base, None).unwrap(), [1, 2, 7]);
        assert_eq!(fold_seed(&base, Some("5")).unwrap(), [1, 2, 7, 5]);
        assert_eq!(fold_seed(&base, Some(" 7 ")).unwrap(), [1, 2, 7]);
        let err = fold_seed(&base, Some("x7")).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("\"x7\""), "{err}");
    }

    #[test]
    fn shape_files_keep_channel_names_and_tag_other_backends() {
        assert_eq!(
            shape_file("BENCH", Shape::SquareCorner, Backend::Channel),
            "BENCH_square-corner.json"
        );
        assert_eq!(
            shape_file("SOAK", Shape::OneDRectangular, Backend::Tcp),
            "SOAK_1D-rectangular_tcp.json"
        );
    }

    #[test]
    fn a_failed_write_names_its_path() {
        let dir = std::env::temp_dir().join(format!("summagen-artifacts-{}", std::process::id()));
        let out = Artifacts::create(&dir).unwrap();
        let err = out.write("no-such-dir/x.json", "{}").unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_string().contains("no-such-dir/x.json"), "{err}");
        assert!(out.write("x.json", "{}").unwrap().is_file());
        fs::remove_dir_all(&dir).ok();
    }
}
