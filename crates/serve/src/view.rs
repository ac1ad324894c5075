//! The model view: everything the endpoints serve, derived once per
//! snapshot.
//!
//! A [`ModelView`] is built when a [`Snapshot`] is installed (at startup
//! and on every hot swap) and is immutable afterwards: the recovered TOD
//! is extracted from the artifact, re-simulated once over the serving
//! dataset to obtain per-link speed/volume fields, and the heavy response
//! bodies (`/kpis`, `/links`, `/map/geojson`, `/version`) are prerendered
//! as byte strings. Request handling is then pure lookup — no wall-clock,
//! no RNG, no mutation — which is what makes responses byte-identical
//! across server thread counts.

use crate::error::{Result, ServeError};
use crate::http::{push_json_f64, push_json_string};
use checkpoint::Snapshot;
use datagen::dataset::simulate;
use datagen::Dataset;
use eval::metrics::masked_speed_rmse;
use roadnet::{LinkId, LinkTensor, OdPair, TodTensor};
use std::sync::Arc;

/// Stable counters surfaced under `"recovery"` in `/kpis`: the trainer's
/// self-healing and storage-quarantine tallies.
pub const RECOVERY_COUNTERS: &[&str] = &[
    "trainer_v2s_rollbacks_total",
    "trainer_v2s_nonfinite_total",
    "trainer_tod2v_rollbacks_total",
    "trainer_tod2v_nonfinite_total",
    "trainer_fit_rollbacks_total",
    "trainer_fit_nonfinite_total",
    "trainer_fit_lr_backoffs_total",
    "trainer_fit_diverged_total",
    "store_quarantined_total",
    "store_retries_total",
    "snapshot_watcher_swaps_total",
];

/// Immutable, fully prerendered serving state for one snapshot.
#[derive(Debug)]
pub struct ModelView {
    snapshot: Snapshot,
    dataset: Arc<Dataset>,
    etag: String,
    tod: TodTensor,
    speed: LinkTensor,
    volume: LinkTensor,
    version_json: String,
    kpis_json: String,
    links_json: String,
    geojson: String,
    incidents_json: String,
}

impl ModelView {
    /// Builds the view: extract the recovered TOD, validate its shape
    /// against the serving dataset, re-simulate it for link fields, and
    /// prerender every whole-collection response body.
    pub fn build(snapshot: Snapshot, dataset: Arc<Dataset>) -> Result<Self> {
        let tod = ovs_core::artifact::recovered_tod(snapshot.artifact())?
            .ok_or_else(|| ServeError::MissingTod(snapshot.name().to_string()))?;
        if tod.rows() != dataset.n_od() || tod.num_intervals() != dataset.n_intervals() {
            return Err(ServeError::ShapeMismatch {
                expected: format!("{} x {}", dataset.n_od(), dataset.n_intervals()),
                actual: format!("{} x {}", tod.rows(), tod.num_intervals()),
            });
        }
        let out = simulate(&dataset.net, &dataset.ods, &dataset.sim_config, &tod)?;
        let mask = vec![true; dataset.n_links() * dataset.n_intervals()];
        let masked_rmse = masked_speed_rmse(&dataset.observed_speed, &out.speed, &mask)?;
        let etag = snapshot.etag();
        let version_json = render_version(&snapshot, &dataset);
        let kpis_json = render_kpis(&snapshot, &dataset, &tod, masked_rmse);
        let links_json = render_links(&dataset, &out.speed, &out.volume);
        let geojson =
            roadnet::export::to_geojson_fields(&dataset.net, Some(&out.speed), Some(&out.volume));
        let incidents_json = render_incidents(&snapshot)?;
        Ok(Self {
            snapshot,
            dataset,
            etag,
            tod,
            speed: out.speed,
            volume: out.volume,
            version_json,
            kpis_json,
            links_json,
            geojson,
            incidents_json,
        })
    }

    /// The snapshot the view was built from.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// The serving dataset (geometry + observations).
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The quoted validator every cacheable endpoint reports.
    pub fn etag(&self) -> &str {
        &self.etag
    }

    /// Prerendered `/version` body.
    pub fn version_json(&self) -> &str {
        &self.version_json
    }

    /// Prerendered `/kpis` body.
    pub fn kpis_json(&self) -> &str {
        &self.kpis_json
    }

    /// Prerendered `/links` body.
    pub fn links_json(&self) -> &str {
        &self.links_json
    }

    /// Prerendered `/map/geojson` body.
    pub fn geojson(&self) -> &str {
        &self.geojson
    }

    /// Prerendered `/incidents` body: the network-incident provenance the
    /// stream driver published alongside this snapshot's window (empty
    /// list when the artifact carries no incident section).
    pub fn incidents_json(&self) -> &str {
        &self.incidents_json
    }

    /// Renders one link's detail body, or `None` for an unknown id.
    pub fn link_json(&self, id: usize) -> Option<String> {
        let link = self.dataset.net.links().get(id)?;
        let mut out = String::from("{\"link\":");
        out.push_str(&id.to_string());
        out.push_str(",\"from\":");
        out.push_str(&link.from.index().to_string());
        out.push_str(",\"to\":");
        out.push_str(&link.to.index().to_string());
        out.push_str(",\"length_m\":");
        push_json_f64(&mut out, link.length_m);
        out.push_str(",\"lanes\":");
        out.push_str(&link.lanes.to_string());
        out.push_str(",\"speed_limit_mps\":");
        push_json_f64(&mut out, link.speed_limit_mps);
        push_series(&mut out, "speed", self.speed.row(LinkId(id)));
        push_series(&mut out, "volume", self.volume.row(LinkId(id)));
        out.push('}');
        Some(out)
    }

    /// Renders one OD pair's slice body, or `None` when the pair is not
    /// part of the serving OD set.
    pub fn od_json(&self, origin: usize, dest: usize) -> Option<String> {
        let pair = OdPair::new(roadnet::RegionId(origin), roadnet::RegionId(dest)).ok()?;
        let id = self.dataset.ods.index_of(pair)?;
        let row = self.tod.row(id);
        let mut out = String::from("{\"origin\":");
        out.push_str(&origin.to_string());
        out.push_str(",\"dest\":");
        out.push_str(&dest.to_string());
        out.push_str(",\"od_pair\":");
        out.push_str(&id.index().to_string());
        out.push_str(",\"total_trips\":");
        push_json_f64(&mut out, row.iter().sum());
        push_series(&mut out, "trips", row);
        out.push('}');
        Some(out)
    }
}

/// Appends `,"{name}":[v0,v1,...]` to `out`.
fn push_series(out: &mut String, name: &str, values: &[f64]) {
    out.push(',');
    push_json_string(out, name);
    out.push_str(":[");
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_f64(out, v);
    }
    out.push(']');
}

fn render_version(snapshot: &Snapshot, dataset: &Dataset) -> String {
    let mut out = String::from("{\"artifact\":");
    push_json_string(&mut out, snapshot.name());
    out.push_str(",\"fingerprint\":");
    push_json_string(&mut out, snapshot.fingerprint());
    out.push_str(",\"kind\":");
    push_json_string(&mut out, snapshot.artifact().kind());
    out.push_str(",\"size_bytes\":");
    out.push_str(&snapshot.size().to_string());
    out.push_str(",\"dataset\":");
    push_json_string(&mut out, &dataset.name);
    if let Some(p) = snapshot.provenance() {
        out.push_str(",\"seed\":");
        out.push_str(&p.seed.to_string());
        out.push_str(",\"git\":");
        push_json_string(&mut out, &p.git);
    }
    out.push('}');
    out
}

fn render_kpis(snapshot: &Snapshot, dataset: &Dataset, tod: &TodTensor, rmse: f64) -> String {
    let regions = dataset.net.regions();
    let mut outbound = vec![0.0f64; regions.len()];
    let mut inbound = vec![0.0f64; regions.len()];
    for (id, pair) in dataset.ods.iter() {
        let trips = tod.row_total(id);
        if let Some(o) = outbound.get_mut(pair.origin.index()) {
            *o += trips;
        }
        if let Some(i) = inbound.get_mut(pair.destination.index()) {
            *i += trips;
        }
    }
    let mut out = String::from("{\"artifact\":");
    push_json_string(&mut out, snapshot.name());
    out.push_str(",\"fingerprint\":");
    push_json_string(&mut out, snapshot.fingerprint());
    out.push_str(",\"total_trips\":");
    push_json_f64(&mut out, tod.total());
    out.push_str(",\"masked_speed_rmse\":");
    push_json_f64(&mut out, rmse);
    out.push_str(",\"intervals\":");
    out.push_str(&dataset.n_intervals().to_string());
    out.push_str(",\"od_pairs\":");
    out.push_str(&dataset.n_od().to_string());
    out.push_str(",\"regions\":[");
    for (i, region) in regions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"region\":");
        out.push_str(&i.to_string());
        out.push_str(",\"name\":");
        push_json_string(&mut out, &region.name);
        out.push_str(",\"population\":");
        push_json_f64(&mut out, region.population);
        out.push_str(",\"outbound_trips\":");
        push_json_f64(&mut out, outbound.get(i).copied().unwrap_or(0.0));
        out.push_str(",\"inbound_trips\":");
        push_json_f64(&mut out, inbound.get(i).copied().unwrap_or(0.0));
        out.push('}');
    }
    out.push_str("],\"recovery\":{");
    for (i, name) in RECOVERY_COUNTERS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, name);
        out.push(':');
        out.push_str(&obs::global().counter(name).get().to_string());
    }
    out.push_str("}}");
    out
}

fn render_links(dataset: &Dataset, speed: &LinkTensor, volume: &LinkTensor) -> String {
    let mut out = String::from("{\"links\":[");
    for (i, link) in dataset.net.links().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"link\":");
        out.push_str(&i.to_string());
        out.push_str(",\"length_m\":");
        push_json_f64(&mut out, link.length_m);
        out.push_str(",\"lanes\":");
        out.push_str(&link.lanes.to_string());
        out.push_str(",\"mean_speed\":");
        push_json_f64(&mut out, mean(speed.row(LinkId(i))));
        out.push_str(",\"mean_volume\":");
        push_json_f64(&mut out, mean(volume.row(LinkId(i))));
        out.push('}');
    }
    out.push_str("],\"count\":");
    out.push_str(&dataset.n_links().to_string());
    out.push('}');
    out
}

/// Renders the `/incidents` body from the artifact's
/// [`ovs_core::artifact::INCIDENTS_SECTION`] rows (7 f64s per incident:
/// kind code, target code, target index, onset tick, duration ticks,
/// severity, window-relative status). Artifacts published by a batch run
/// or an incident-free stream carry no section and serve an empty list.
fn render_incidents(snapshot: &Snapshot) -> Result<String> {
    let section = ovs_core::artifact::INCIDENTS_SECTION;
    let rows = if snapshot.artifact().has(section) {
        snapshot.artifact().f64s(section)?
    } else {
        Vec::new()
    };
    let mut out = String::from("{\"artifact\":");
    push_json_string(&mut out, snapshot.name());
    out.push_str(",\"incidents\":[");
    let mut count = 0usize;
    let mut active = 0usize;
    for row in rows.chunks_exact(7) {
        let field = |j: usize| row.get(j).copied().unwrap_or(0.0);
        if count > 0 {
            out.push(',');
        }
        count += 1;
        let kind = simulator::IncidentKind::from_code(field(0) as u8)
            .map(|k| k.label())
            .unwrap_or("unknown");
        out.push_str("{\"kind\":");
        push_json_string(&mut out, kind);
        out.push(',');
        push_json_string(&mut out, if field(1) as u8 == 1 { "node" } else { "link" });
        out.push(':');
        out.push_str(&(field(2) as u64).to_string());
        out.push_str(",\"onset_tick\":");
        out.push_str(&(field(3) as u64).to_string());
        out.push_str(",\"duration_ticks\":");
        out.push_str(&(field(4) as u64).to_string());
        out.push_str(",\"severity\":");
        push_json_f64(&mut out, field(5));
        let status = match field(6) as u8 {
            0 => "past",
            1 => "active",
            _ => "scheduled",
        };
        if status == "active" {
            active += 1;
        }
        out.push_str(",\"status\":");
        push_json_string(&mut out, status);
        out.push('}');
    }
    out.push_str("],\"count\":");
    out.push_str(&count.to_string());
    out.push_str(",\"active\":");
    out.push_str(&active.to_string());
    out.push('}');
    Ok(out)
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}
