//! Network export: GeoJSON.
//!
//! Generated networks are easiest to sanity-check visually; the export
//! plugs into any GeoJSON viewer. Link observations can be attached as
//! GeoJSON properties for choropleth-style congestion maps.

use crate::network::RoadNetwork;
use crate::tensor::LinkTensor;

/// Congestion bucket of one link given its mean volume and the maximum
/// mean volume over all links: the choropleth classes the map view
/// colours by. Pure and deterministic; a zero-flow network is all
/// `"low"`.
fn congestion_class(mean_volume: f64, max_mean: f64) -> &'static str {
    if max_mean <= 0.0 {
        return "low";
    }
    let ratio = mean_volume / max_mean;
    if ratio >= 0.75 {
        "high"
    } else if ratio >= 0.35 {
        "medium"
    } else {
        "low"
    }
}

/// Renders the network as a GeoJSON `FeatureCollection` of `LineString`
/// links (local metric coordinates). When `speeds` is given, each feature
/// carries `speed_t<k>` properties with that link's series; when
/// `volumes` is given, `volume_t<k>` series, `mean_volume` and a
/// `congestion` class (`low` / `medium` / `high`, relative to the most
/// loaded link) — the payload behind the serving layer's `/map/geojson`
/// endpoint.
pub fn to_geojson_fields(
    net: &RoadNetwork,
    speeds: Option<&LinkTensor>,
    volumes: Option<&LinkTensor>,
) -> String {
    let mean = |series: &[f64]| {
        if series.is_empty() {
            0.0
        } else {
            series.iter().sum::<f64>() / series.len() as f64
        }
    };
    let max_mean = volumes
        .map(|v| {
            net.links()
                .iter()
                .map(|l| mean(v.row(l.id)))
                .fold(0.0f64, f64::max)
        })
        .unwrap_or(0.0);
    let mut features = Vec::with_capacity(net.num_links());
    for l in net.links() {
        let (Some(a), Some(b)) = (
            net.nodes().get(l.from.index()),
            net.nodes().get(l.to.index()),
        ) else {
            // Unreachable on a validly built network; skip rather than
            // panic so the export stays total.
            continue;
        };
        let (a, b) = (a.point, b.point);
        let mut props = format!(
            "\"link\":{},\"lanes\":{},\"speed_limit\":{:.1},\"length_m\":{:.1}",
            l.id.index(),
            l.lanes,
            l.speed_limit_mps,
            l.length_m
        );
        if let Some(sp) = speeds {
            for t in 0..sp.num_intervals() {
                props.push_str(&format!(",\"speed_t{t}\":{:.2}", sp.get(l.id, t)));
            }
        }
        if let Some(vol) = volumes {
            for t in 0..vol.num_intervals() {
                props.push_str(&format!(",\"volume_t{t}\":{:.2}", vol.get(l.id, t)));
            }
            let m = mean(vol.row(l.id));
            props.push_str(&format!(
                ",\"mean_volume\":{m:.2},\"congestion\":\"{}\"",
                congestion_class(m, max_mean)
            ));
        }
        features.push(format!(
            "{{\"type\":\"Feature\",\"geometry\":{{\"type\":\"LineString\",\"coordinates\":[[{:.1},{:.1}],[{:.1},{:.1}]]}},\"properties\":{{{props}}}}}",
            a.x, a.y, b.x, b.y
        ));
    }
    format!(
        "{{\"type\":\"FeatureCollection\",\"features\":[{}]}}",
        features.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::GridSpec;

    #[test]
    fn geojson_is_valid_json_with_all_links() {
        let net = GridSpec::new(2, 3).build(0);
        let speeds = LinkTensor::filled(net.num_links(), 2, 9.5);
        let gj = to_geojson_fields(&net, Some(&speeds), None);
        let parsed: serde_json::Value = serde_json::from_str(&gj).expect("valid JSON");
        let feats = parsed["features"].as_array().expect("feature array");
        assert_eq!(feats.len(), net.num_links());
        assert_eq!(feats[0]["properties"]["speed_t1"], 9.5);
        assert_eq!(feats[0]["geometry"]["type"], "LineString");
    }

    #[test]
    fn geojson_without_speeds_omits_series() {
        let net = GridSpec::new(2, 2).build(0);
        let gj = to_geojson_fields(&net, None, None);
        assert!(!gj.contains("speed_t0"));
        let _: serde_json::Value = serde_json::from_str(&gj).expect("valid JSON");
    }

    #[test]
    fn geojson_fields_carry_volumes_and_congestion_classes() {
        let net = GridSpec::new(2, 3).build(0);
        let speeds = LinkTensor::filled(net.num_links(), 2, 9.5);
        // One heavily loaded link, the rest idle: classes must span
        // high (the max link) and low (everything at ratio ~0).
        let mut volumes = LinkTensor::filled(net.num_links(), 2, 1.0);
        volumes.row_mut(crate::ids::LinkId(0)).fill(100.0);
        let gj = to_geojson_fields(&net, Some(&speeds), Some(&volumes));
        let parsed: serde_json::Value = serde_json::from_str(&gj).expect("valid JSON");
        let feats = parsed["features"].as_array().expect("feature array");
        assert_eq!(feats.len(), net.num_links());
        assert_eq!(feats[0]["properties"]["volume_t1"], 100.0);
        assert_eq!(feats[0]["properties"]["congestion"], "high");
        assert_eq!(feats[1]["properties"]["congestion"], "low");
        assert_eq!(feats[0]["properties"]["mean_volume"], 100.0);
        // Determinism: the export is a pure function of its inputs.
        assert_eq!(gj, to_geojson_fields(&net, Some(&speeds), Some(&volumes)));
    }

    #[test]
    fn congestion_classes_are_stable_buckets() {
        assert_eq!(congestion_class(0.0, 0.0), "low");
        assert_eq!(congestion_class(1.0, 1.0), "high");
        assert_eq!(congestion_class(0.5, 1.0), "medium");
        assert_eq!(congestion_class(0.1, 1.0), "low");
    }
}
