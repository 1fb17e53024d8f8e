//! Decoder fuzzing: a damaged checkpoint or campaign cache entry decodes
//! to a named error or a counted cache miss, never a panic. Every case
//! starts from a real artifact. A checkpoint file or cache entry is
//! truncated or has one byte flipped. A checkpoint payload instead has one
//! leaf of its parsed JSON tree changed and is re-hashed, so every case
//! gets past the integrity check and the JSON parser to the state decoder
//! and restore.
//!
//! The case count follows `PROPTEST_CASES`; CI reruns this file in
//! release mode at 2000 cases per property.

use pa_campaign::{Cache, CheckpointCtx, Lookup, PointCtx, PointResult, PointSpec};
use pa_core::RunOutput;
use pa_mpi::RankWorkload;
use pa_simkit::{sha256_hex, SeedSpace, SimDur};
use pa_workloads::{run_point_with, AggregateSpec, AggregateTrace, ScalingConfig};
use proptest::prelude::*;
use serde::value::Value;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// SHA-256 of the original checkpoint file, recorded when each engine
/// struct still had a mirror checkpoint struct. The file holds daemons,
/// ready queues, a rank mid-collective and the recorder's extras.
const ORIGINAL_CHECKPOINT_SHA256: &str =
    "f767533793c8760c87e25826fc75fcc0cc3c7c660d45725fe717b2c53bb84c59";

/// The point every artifact comes from: 2 nodes of the quick Figure 3
/// sweep, 48 Allreduces.
fn original_spec() -> PointSpec<AggregateSpec> {
    let mut cfg = ScalingConfig::fig3(true);
    cfg.allreduces = 48;
    cfg.target_sim_time = None;
    cfg.point(2, 42)
}

/// Run the original point with a periodic checkpoint every 200 µs at
/// `path`, which must not exist yet (the run would resume from it). The
/// last checkpoint is left there.
fn checkpointed_run(path: &Path) -> RunOutput {
    let ctx = PointCtx {
        checkpoint: Some(CheckpointCtx {
            path: path.to_path_buf(),
            every: SimDur::from_micros(200),
        }),
    };
    let out = run_point_with(&original_spec(), &ctx);
    assert!(out.completed && out.sim.checkpoints_written() > 0);
    out
}

/// The original point assembled exactly as [`run_point_with`] builds it
/// and booted, but not run: a zero horizon stops it at boot. A checkpoint
/// of the original point restores into it.
fn booted_original() -> RunOutput {
    let spec = original_spec();
    let seeds = SeedSpace::new(spec.seed);
    let mut make = |rank: u32| -> Box<dyn RankWorkload> {
        let stream = seeds.stream_at("wl/agg", u64::from(rank), 0);
        Box::new(AggregateTrace::new(spec.workload, stream))
    };
    spec.experiment().with_horizon(SimDur::ZERO).run(&mut make)
}

/// Restore the checkpoint at `path` into a freshly booted original,
/// recorder extras included.
fn restore_into_booted(path: &Path) -> Result<(), String> {
    let mut booted = booted_original();
    for (key, value) in booted.sim.restore(path)? {
        if key == "recorder" {
            let mut recorder = booted.job.recorder.lock().unwrap();
            recorder.restore_value(&value).map_err(|e| e.0)?;
        }
    }
    Ok(())
}

/// The undamaged artifacts, produced once per test binary.
struct Originals {
    checkpoint: Vec<u8>,
    /// The checkpoint's hashed payload: the encoded engine state.
    payload: String,
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
        let spec = original_spec();
        let path = dir.join("original.ckpt.json");
        let out = checkpointed_run(&path);
        pa_cluster::verify_checkpoint_file(&path).unwrap();
        restore_into_booted(&path).expect("the undamaged checkpoint restores");

        let cache = Cache::at(dir.join("cache")).unwrap();
        let key = spec.content_key();
        let result = PointResult::from_run(&out);
        cache.store(&key, &spec, &result).unwrap();
        assert_eq!(cache.lookup(&key), Lookup::Hit(result.clone()));
        let checkpoint = std::fs::read(&path).unwrap();
        let file = serde_json::parse(std::str::from_utf8(&checkpoint).unwrap()).unwrap();
        let payload = serde::value::get(file.as_map().unwrap(), "payload");
        let payload = payload.and_then(Value::as_str).unwrap().to_string();
        let originals = Originals {
            checkpoint,
            payload,
            entry: std::fs::read(cache.path_for(&key)).unwrap(),
            key,
            result,
        };
        let _ = std::fs::remove_dir_all(&dir);
        originals
    })
}

/// The original checkpoint file with its payload replaced by `payload`
/// and re-hashed, so it passes the integrity check and reaches the state
/// decoder.
fn rehashed(payload: &str) -> String {
    let o = originals();
    let file = serde_json::parse(std::str::from_utf8(&o.checkpoint).unwrap()).unwrap();
    let Value::Map(mut pairs) = file else {
        panic!("checkpoint file is not an object");
    };
    for (k, v) in &mut pairs {
        match k.as_str() {
            "sha256" => *v = Value::Str(sha256_hex(payload.as_bytes())),
            "payload" => *v = Value::Str(payload.to_string()),
            _ => {}
        }
    }
    Value::Map(pairs).to_json_string()
}

#[test]
fn original_checkpoint_bytes_known_answer() {
    let o = originals();
    assert_eq!(sha256_hex(&o.checkpoint), ORIGINAL_CHECKPOINT_SHA256);
    assert_eq!(rehashed(&o.payload).as_bytes(), &o.checkpoint[..]);
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

/// How a case damages one leaf of the parsed checkpoint payload: a
/// scalar, or an empty sequence or map.
#[derive(Debug, Clone, Copy)]
struct LeafDamage {
    /// The leaf's index in document order.
    leaf: usize,
    /// Replace the leaf with a value of another kind, instead of changing
    /// its value.
    retype: bool,
    mask: u32,
}

impl LeafDamage {
    /// Place a drawn damage on one of `leaves` leaves.
    fn new(retype: bool, frac: f64, mask: u32, leaves: usize) -> LeafDamage {
        let leaf = ((leaves as f64 * frac) as usize).min(leaves - 1);
        LeafDamage { leaf, retype, mask }
    }

    fn apply(self, tree: &Value) -> Value {
        let mut out = tree.clone();
        let v = nth_leaf(&mut out, &mut { self.leaf }).expect("leaf index in range");
        let m = u64::from(self.mask);
        *v = match (self.retype, &*v) {
            (true, Value::Str(_)) => Value::UInt(m),
            (true, Value::Null) => Value::Bool(true),
            (true, Value::Seq(_) | Value::Map(_)) => Value::Null,
            (true, _) => Value::Str(m.to_string()),
            (false, Value::Null) => Value::UInt(m),
            (false, Value::Bool(b)) => Value::Bool(!b),
            (false, Value::UInt(n)) => Value::UInt(n ^ m),
            (false, Value::Int(n)) => Value::Int(n ^ m as i64),
            (false, Value::Float(x)) => Value::Float(x + m as f64),
            (false, Value::Str(s)) => Value::Str(format!("{s}{}", m % 10)),
            (false, Value::Seq(_)) => Value::Seq(vec![Value::UInt(m)]),
            (false, Value::Map(_)) => Value::Map(vec![("x".into(), Value::UInt(m))]),
        };
        out
    }
}

fn is_leaf(v: &Value) -> bool {
    match v {
        Value::Seq(xs) => xs.is_empty(),
        Value::Map(pairs) => pairs.is_empty(),
        _ => true,
    }
}

/// Number of leaves in `v`.
fn leaves(v: &Value) -> usize {
    match v {
        _ if is_leaf(v) => 1,
        Value::Seq(xs) => xs.iter().map(leaves).sum(),
        Value::Map(pairs) => pairs.iter().map(|(_, x)| leaves(x)).sum(),
        _ => unreachable!("scalars are leaves"),
    }
}

/// The leaf `*n` leaves into `v`, in document order.
fn nth_leaf<'v>(v: &'v mut Value, n: &mut usize) -> Option<&'v mut Value> {
    if is_leaf(v) {
        if *n == 0 {
            return Some(v);
        }
        *n -= 1;
        return None;
    }
    match v {
        Value::Seq(xs) => xs.iter_mut().find_map(|x| nth_leaf(x, n)),
        Value::Map(pairs) => pairs.iter_mut().find_map(|(_, x)| nth_leaf(x, n)),
        _ => unreachable!("scalars are leaves"),
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
    fn damaged_checkpoint_payloads_restore_or_fail_with_a_named_error(
        retype in any::<bool>(),
        frac in 0.0f64..1.0,
        mask in 1u32..256,
    ) {
        let o = originals();
        let tree = serde_json::parse(&o.payload).unwrap();
        let damage = LeafDamage::new(retype, frac, mask, leaves(&tree));
        let payload = damage.apply(&tree).to_json_string();
        let path = scratch("payload.ckpt.json");
        std::fs::write(&path, rehashed(&payload)).unwrap();
        let restored = restore_into_booted(&path);
        std::fs::remove_file(&path).unwrap();
        // A damage can leave a valid state (a digit changed in a
        // counter), so `Ok` is allowed; what is not is a panic or an
        // error that says nothing.
        if let Err(e) = restored {
            prop_assert!(!e.trim().is_empty(), "{:?}: empty error", damage);
        }
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
