//! Campaign bookkeeping: what ran, from where, and how fast.

use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};

/// Throughput and cache statistics for one campaign invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignMetrics {
    /// Points in the campaign.
    pub points_total: usize,
    /// Points freshly simulated this invocation.
    pub points_run: usize,
    /// Points served from the cache.
    pub cache_hits: usize,
    /// Cache entries found on disk but unusable (truncated, unparseable,
    /// or wrong schema/key) that were re-run and overwritten. One whose
    /// re-store failed is not counted: it stays unusable on disk.
    #[serde(default)]
    pub corrupt_entries: u64,
    /// Simulator events processed by the fresh runs.
    pub sim_events: u64,
    /// Wall-clock seconds for the whole campaign.
    pub wall_s: f64,
    /// Simulated events per wall-clock second (fresh runs only).
    pub events_per_sec: f64,
}

/// One point's row in the manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestPoint {
    /// Position in the campaign (result order).
    pub index: usize,
    /// Content key (cache file stem).
    pub key: String,
    /// Workload family.
    pub family: String,
    /// Node count.
    pub nodes: u32,
    /// Task count across the machine.
    pub procs: u32,
    /// Master seed.
    pub seed: u64,
    /// Served from cache?
    pub cached: bool,
    /// Did the run complete before its horizon?
    pub completed: bool,
    /// Headline metric.
    pub mean_allreduce_us: f64,
    /// Simulator events the point's run processed (deterministic: cache
    /// hits report the same value the original run did).
    pub events: u64,
    /// Per-point named metrics carried through from the run
    /// ([`crate::PointResult::extra`]).
    #[serde(default)]
    pub extra: std::collections::BTreeMap<String, f64>,
}

/// The on-disk record of one campaign invocation, written next to the
/// cache entries it references.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignManifest {
    /// Campaign label (e.g. `"fig3"`).
    pub label: String,
    /// Cache schema the entries were written under.
    pub schema: u32,
    /// Per-point records, in result order.
    pub points: Vec<ManifestPoint>,
    /// Invocation statistics.
    pub metrics: CampaignMetrics,
}

impl CampaignManifest {
    /// Write as `<label>.manifest.json` under `dir`; returns the path.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        let stem: String = self
            .label
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let path = dir.join(format!("{stem}.manifest.json"));
        let json = serde_json::to_string_pretty(self).expect("manifest serializes");
        std::fs::write(&path, json + "\n")?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_and_sanitizes_label() {
        let m = CampaignManifest {
            label: "fig3/quick".into(),
            schema: 1,
            points: vec![ManifestPoint {
                index: 0,
                key: "deadbeef".into(),
                family: "aggregate".into(),
                nodes: 4,
                procs: 64,
                seed: 42,
                cached: false,
                completed: true,
                mean_allreduce_us: 321.0,
                events: 12_345,
                extra: std::collections::BTreeMap::new(),
            }],
            metrics: CampaignMetrics {
                points_total: 1,
                points_run: 1,
                cache_hits: 0,
                corrupt_entries: 0,
                sim_events: 1000,
                wall_s: 0.5,
                events_per_sec: 2000.0,
            },
        };
        let dir = std::env::temp_dir().join(format!("pa-manifest-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = m.write(&dir).unwrap();
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with("fig3_quick"));
        let back: CampaignManifest =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, m);
    }
}
