//! Decoder fuzzing: a damaged checkpoint or campaign cache entry decodes
//! to a named error or a counted cache miss, never a panic. Every case
//! starts from a real artifact and either truncates it or flips one byte.
//!
//! The case count follows `PROPTEST_CASES`; CI reruns this file in
//! release mode at 2000 cases per property.

use pa_campaign::{Cache, CheckpointCtx, Lookup, PointCtx, PointResult};
use pa_simkit::SimDur;
use pa_workloads::{run_point_with, ScalingConfig};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

/// The undamaged artifacts, produced once per test binary.
struct Originals {
    checkpoint: Vec<u8>,
    key: String,
    entry: Vec<u8>,
    result: PointResult,
}

fn originals() -> &'static Originals {
    static ORIGINALS: OnceLock<Originals> = OnceLock::new();
    ORIGINALS.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("pa-decode-fuzz-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut cfg = ScalingConfig::fig3(true);
        cfg.allreduces = 48;
        cfg.target_sim_time = None;
        let spec = cfg.point(2, 42);
        let path = dir.join("original.ckpt.json");
        let out = run_point_with(
            &spec,
            &PointCtx {
                sim_threads: 1,
                checkpoint: Some(CheckpointCtx {
                    path: path.clone(),
                    every: SimDur::from_micros(200),
                }),
            },
        );
        assert!(out.completed && out.sim.checkpoints_written() > 0);
        pa_cluster::verify_checkpoint_file(&path).unwrap();

        let cache = Cache::at(dir.join("cache")).unwrap();
        let key = spec.content_key();
        let result = PointResult::from_run(&out);
        cache.store(&key, &spec, &result).unwrap();
        assert_eq!(cache.lookup(&key), Lookup::Hit(result.clone()));
        let originals = Originals {
            checkpoint: std::fs::read(&path).unwrap(),
            entry: std::fs::read(cache.path_for(&key)).unwrap(),
            key,
            result,
        };
        let _ = std::fs::remove_dir_all(&dir);
        originals
    })
}

/// A per-property scratch path, removed by each case once it is done.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pa-decode-fuzz-{}-{name}", std::process::id()))
}

/// How a case damages an artifact.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// Keep only the first `n` bytes.
    Truncate(usize),
    /// XOR the byte at `at` with a nonzero mask.
    Flip { at: usize, mask: u8 },
}

impl Damage {
    /// Place a drawn damage inside an artifact of `len` bytes.
    fn new(truncate: bool, frac: f64, mask: u32, len: usize) -> Damage {
        let at = ((len as f64 * frac) as usize).min(len - 1);
        if truncate {
            Damage::Truncate(at)
        } else {
            Damage::Flip {
                at,
                mask: mask as u8,
            }
        }
    }

    fn apply(self, bytes: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        match self {
            Damage::Truncate(n) => out.truncate(n),
            Damage::Flip { at, mask } => out[at] ^= mask,
        }
        out
    }
}

proptest! {
    #[test]
    fn damaged_checkpoints_fail_verification_with_a_named_error(
        truncate in any::<bool>(),
        frac in 0.0f64..1.0,
        mask in 1u32..256,
    ) {
        let o = originals();
        let damage = Damage::new(truncate, frac, mask, o.checkpoint.len());
        let path = scratch("ckpt.json");
        std::fs::write(&path, damage.apply(&o.checkpoint)).unwrap();
        let verified = pa_cluster::verify_checkpoint_file(&path);
        std::fs::remove_file(&path).unwrap();
        // The sha256 covers the whole payload and every other field is
        // checked, so no single damage may verify.
        let Err(e) = verified else {
            return Err(TestCaseError::fail(format!("{damage:?} verified")));
        };
        prop_assert!(
            e.contains(&path.display().to_string()),
            "{damage:?}: error does not name the file: {e}"
        );
    }

    #[test]
    fn damaged_cache_entries_read_as_counted_misses(
        truncate in any::<bool>(),
        frac in 0.0f64..1.0,
        mask in 1u32..256,
    ) {
        let o = originals();
        let damage = Damage::new(truncate, frac, mask, o.entry.len());
        let dir = scratch("cache");
        let cache = Cache::at(&dir).unwrap();
        std::fs::write(cache.path_for(&o.key), damage.apply(&o.entry)).unwrap();
        let got = cache.lookup(&o.key);
        std::fs::remove_dir_all(&dir).unwrap();
        prop_assert_ne!(&got, &Lookup::Absent, "{:?}: a present entry read as absent", damage);
        let Lookup::Hit(got) = got else {
            return Ok(());
        };
        // Entries carry no checksum, so some damage still decodes:
        // dropping the trailing newline, editing the informational `spec`,
        // or rewriting a digit or map key inside `result` (whose values
        // then differ — the one damage a lookup cannot notice).
        let text = String::from_utf8_lossy(&o.entry);
        let result_at = text.find("\"result\":").unwrap();
        match damage {
            Damage::Truncate(n) => prop_assert!(
                o.entry[n..].iter().all(u8::is_ascii_whitespace),
                "{damage:?} decoded"
            ),
            Damage::Flip { at, .. } if at < result_at => prop_assert_eq!(got, o.result.clone()),
            Damage::Flip { .. } => {}
        }
    }
}
