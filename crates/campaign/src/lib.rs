//! Experiment campaigns: run many simulation points, in parallel, with
//! a content-addressed on-disk cache.

pub mod cache;
pub mod executor;
pub mod manifest;
pub mod spec;

pub use cache::{Cache, Lookup, PointResult, CACHE_SCHEMA_VERSION};
pub use executor::{
    run_campaign, CampaignOutcome, CheckpointCtx, ExecutorConfig, PointCtx, TruncatedPoints,
};
pub use manifest::{CampaignManifest, CampaignMetrics};
pub use spec::PointSpec;
