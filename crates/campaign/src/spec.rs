//! The serializable description of one experiment point: everything that
//! determines a run's outcome, and nothing that doesn't. Two specs with
//! equal content keys produce bit-identical results.

use crate::cache::CACHE_SCHEMA_VERSION;
use pa_core::{CoschedSetup, Experiment};
use pa_kernel::SchedOptions;
use pa_mpi::ProgressSpec;
use pa_noise::NoiseProfile;
use pa_simkit::sha256_hex;
use pa_simkit::SimDur;
use serde::value::{get, Value};
use serde::{Deserialize, Error, Serialize};

/// One point of a campaign, generic over the workload description `W`
/// (e.g. `AggregateSpec` for the scaling figures). The workload crates
/// supply `W` and the runner that turns a spec into results; this crate
/// owns identity, caching, and execution.
#[derive(Debug, Clone)]
pub struct PointSpec<W> {
    /// Workload family tag (e.g. `"aggregate"`); part of the cache key so
    /// two families whose `W` serialize identically can never collide.
    pub family: String,
    /// Node count.
    pub nodes: u32,
    /// Tasks per node.
    pub tasks_per_node: u32,
    /// CPUs per node.
    pub cpus_per_node: u8,
    /// Kernel option block.
    pub kernel: SchedOptions,
    /// Co-scheduler deployment, if any.
    pub cosched: Option<CoschedSetup>,
    /// Interference profile.
    pub noise: NoiseProfile,
    /// MPI timer threads.
    pub progress: Option<ProgressSpec>,
    /// Workload shape.
    pub workload: W,
    /// Master seed.
    pub seed: u64,
    /// Horizon override: `Some` marks a run-for-simulated-time point
    /// (expected to be cut), `None` a fixed-work point (must complete).
    pub horizon: Option<SimDur>,
    /// Per-node link capacity, bytes/sec; `None` is the unlimited legacy
    /// fabric with no contention.
    pub link_bandwidth: Option<f64>,
}

// Manual impls: the derive macro in the serde shim does not handle
// generic types. Field order here defines the canonical form the content
// key hashes — append new fields at the end and bump
// `CACHE_SCHEMA_VERSION` when semantics change.
impl<W: Serialize> Serialize for PointSpec<W> {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("family".into(), self.family.to_value()),
            ("nodes".into(), self.nodes.to_value()),
            ("tasks_per_node".into(), self.tasks_per_node.to_value()),
            ("cpus_per_node".into(), self.cpus_per_node.to_value()),
            ("kernel".into(), self.kernel.to_value()),
            ("cosched".into(), self.cosched.to_value()),
            ("noise".into(), self.noise.to_value()),
            ("progress".into(), self.progress.to_value()),
            ("workload".into(), self.workload.to_value()),
            ("seed".into(), self.seed.to_value()),
            ("horizon".into(), self.horizon.to_value()),
            ("link_bandwidth".into(), self.link_bandwidth.to_value()),
        ])
    }
}

impl<W: Deserialize> Deserialize for PointSpec<W> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let map = v
            .as_map()
            .ok_or_else(|| Error::expected("map", "PointSpec"))?;
        fn field<T: Deserialize>(map: &[(String, Value)], name: &str) -> Result<T, Error> {
            get(map, name)
                .ok_or_else(|| Error::missing(name, "PointSpec"))
                .and_then(T::from_value)
        }
        Ok(PointSpec {
            family: field(map, "family")?,
            nodes: field(map, "nodes")?,
            tasks_per_node: field(map, "tasks_per_node")?,
            cpus_per_node: field(map, "cpus_per_node")?,
            kernel: field(map, "kernel")?,
            cosched: field(map, "cosched")?,
            noise: field(map, "noise")?,
            progress: field(map, "progress")?,
            workload: field(map, "workload")?,
            seed: field(map, "seed")?,
            horizon: field(map, "horizon")?,
            link_bandwidth: field(map, "link_bandwidth")?,
        })
    }
}

impl<W> PointSpec<W> {
    /// Tasks across the machine (the figures' x-axis).
    pub fn procs(&self) -> u32 {
        self.nodes * self.tasks_per_node
    }

    /// Assemble the experiment this spec describes. The caller supplies
    /// the per-rank workload factory built from `self.workload`.
    pub fn experiment(&self) -> Experiment {
        let mut e = Experiment::new(self.nodes, self.tasks_per_node)
            .with_cpus_per_node(self.cpus_per_node)
            .with_kernel(self.kernel)
            .with_noise(self.noise.clone())
            .with_progress(self.progress)
            .with_seed(self.seed)
            .with_link_bandwidth(self.link_bandwidth);
        if let Some(h) = self.horizon {
            e = e.with_horizon(h);
        }
        if let Some(cs) = self.cosched {
            e = e.with_cosched(cs);
        }
        e
    }
}

impl<W: Serialize> PointSpec<W> {
    /// Content key: SHA-256 over the schema version and the canonical
    /// JSON form. Any observable change to the spec — or to the cache
    /// schema — yields a different key, which is the cache's only
    /// invalidation rule.
    pub fn content_key(&self) -> String {
        let json = serde_json::to_string(self).expect("spec serializes");
        sha256_hex(format!("pa-campaign/v{CACHE_SCHEMA_VERSION}:{json}").as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> PointSpec<u32> {
        PointSpec {
            family: "unit".into(),
            nodes: 4,
            tasks_per_node: 16,
            cpus_per_node: 16,
            kernel: SchedOptions::vanilla(),
            cosched: Some(CoschedSetup::default()),
            noise: NoiseProfile::production(),
            progress: Some(ProgressSpec::default()),
            workload: 7,
            seed: 42,
            horizon: None,
            link_bandwidth: None,
        }
    }

    #[test]
    fn serialization_round_trips() {
        let s = spec();
        let json = serde_json::to_string(&s).unwrap();
        let back: PointSpec<u32> = serde_json::from_str(&json).unwrap();
        // Compare through the canonical form (NoiseProfile has no
        // PartialEq): equal JSON means equal content keys.
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(back.content_key(), s.content_key());
    }

    #[test]
    fn key_is_stable_and_sensitive() {
        let a = spec();
        assert_eq!(a.content_key(), spec().content_key());
        let mut b = spec();
        b.seed = 43;
        assert_ne!(a.content_key(), b.content_key());
        let mut c = spec();
        c.kernel = SchedOptions::prototype();
        assert_ne!(a.content_key(), c.content_key());
        let mut d = spec();
        d.family = "other".into();
        assert_ne!(a.content_key(), d.content_key());
        let mut e = spec();
        e.link_bandwidth = Some(350e6);
        assert_ne!(a.content_key(), e.content_key());
        // A family's own parameters, such as a batch point's placement
        // policy, live in the workload.
        let mut f = spec();
        f.workload = 8;
        assert_ne!(a.content_key(), f.content_key());
        let mut g = spec();
        g.kernel.dispatcher = pa_kernel::DispatcherKind::Cfs;
        assert_ne!(a.content_key(), g.content_key());
    }

    #[test]
    fn experiment_reflects_spec() {
        let e = spec().experiment();
        assert_eq!(e.nodes, 4);
        assert_eq!(e.tasks_per_node, 16);
        assert!(e.cosched.is_some());
        assert_eq!(e.seed, 42);
        assert_eq!(e.kernel.dispatcher, pa_kernel::DispatcherKind::Aix);

        let mut s = spec();
        s.kernel.dispatcher = pa_kernel::DispatcherKind::Eevdf;
        assert_eq!(
            s.experiment().kernel.dispatcher,
            pa_kernel::DispatcherKind::Eevdf
        );
    }
}
