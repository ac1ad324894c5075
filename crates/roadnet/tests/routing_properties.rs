//! Property-based tests for the routing substrate: Dijkstra against a
//! brute-force enumeration on random small networks, structural
//! invariants of Yen's algorithm, and shortest-path trees against the
//! early-exit search they replace.

use proptest::prelude::*;
use roadnet::generators::{GridSpec, IrregularSpec};
use roadnet::routing::{dijkstra, dijkstra_with_bans, k_shortest_paths, shortest_path_tree};
use roadnet::{Link, LinkId, NodeId, RoadNetwork};

/// All simple paths from `from` to `to` by DFS (small graphs only).
fn brute_force_shortest(net: &RoadNetwork, from: NodeId, to: NodeId) -> Option<f64> {
    fn dfs(
        net: &RoadNetwork,
        cur: NodeId,
        to: NodeId,
        visited: &mut Vec<bool>,
        cost: f64,
        best: &mut Option<f64>,
    ) {
        if cur == to {
            *best = Some(best.map_or(cost, |b: f64| b.min(cost)));
            return;
        }
        if let Some(b) = *best {
            if cost >= b {
                return; // prune
            }
        }
        visited[cur.index()] = true;
        for &lid in net.out_links(cur) {
            let l = &net.links()[lid.index()];
            if !visited[l.to.index()] {
                dfs(net, l.to, to, visited, cost + l.length_m, best);
            }
        }
        visited[cur.index()] = false;
    }
    let mut best = None;
    let mut visited = vec![false; net.num_nodes()];
    dfs(net, from, to, &mut visited, 0.0, &mut best);
    best
}

/// A deterministic draw in `[0, 1)` for item `i` under `seed`
/// (splitmix64), so masks and costs are reproducible from the case inputs.
fn unit(seed: u64, i: usize) -> f64 {
    let mut z = seed
        .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Link costs with many exact ties: `kind` 0 is one per link (every
/// equal-hop route ties), 1 is 0, 1 or 2 per link (zero-cost links too),
/// 2 is the length (sub-metre jitter, few ties), and 3 is free-flow time
/// with some links priced at infinity (unusable).
fn link_cost(kind: usize, seed: u64) -> impl Fn(&Link) -> f64 {
    move |l: &Link| match kind {
        0 => 1.0,
        1 => (l.id.index() % 3) as f64,
        2 => l.length_m,
        _ if unit(seed ^ 0xC057, l.id.index()) < 0.1 => f64::INFINITY,
        _ => l.free_flow_time_s(),
    }
}

/// Checks every (from, to) pair of `net`: the route read off `from`'s
/// tree is the early-exit Dijkstra route, with the same links, the same
/// cost bits and the same `NoPath` cases. Returns how many pairs had no
/// path.
fn check_trees_match_dijkstra(
    net: &RoadNetwork,
    cost: &dyn Fn(&Link) -> f64,
    masked: &dyn Fn(LinkId) -> bool,
) -> Result<usize, TestCaseError> {
    let mut no_path = 0;
    for from in (0..net.num_nodes()).map(NodeId) {
        let tree = shortest_path_tree(net, from, cost, masked).unwrap();
        for to in (0..net.num_nodes()).map(NodeId) {
            let want = dijkstra_with_bans(net, from, to, cost, masked, &|_| false);
            let got = tree.route_to(net, to);
            match (&want, &got) {
                (Ok(w), Ok(g)) => {
                    prop_assert_eq!(&w.links, &g.links);
                    prop_assert_eq!(w.cost.to_bits(), g.cost.to_bits());
                }
                _ => {
                    prop_assert_eq!(&want, &got);
                    no_path += 1;
                }
            }
        }
    }
    Ok(no_path)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Routes read off a full shortest-path tree equal the early-exit
    /// search on grids (where equal-cost ties abound) under random link
    /// masks, for every node pair.
    #[test]
    fn grid_tree_routes_match_dijkstra(
        rows in 2usize..6,
        cols in 2usize..6,
        seed in 0u64..10_000,
        mask_pct in 0usize..45,
        kind in 0usize..4,
    ) {
        let net = GridSpec::new(rows, cols).with_arterials(2).build(seed);
        let cost = link_cost(kind, seed);
        let masked = |l: LinkId| unit(seed, l.index()) * 100.0 < mask_pct as f64;
        check_trees_match_dijkstra(&net, &cost, &masked)?;
    }

    /// The same on irregular networks, whose sparse, uneven degrees leave
    /// pairs unreachable under far lighter masks.
    #[test]
    fn irregular_tree_routes_match_dijkstra(
        nodes in 4usize..14,
        seed in 0u64..10_000,
        mask_pct in 0usize..30,
        kind in 0usize..4,
    ) {
        let roads = (nodes + 3).min(nodes * (nodes - 1) / 2);
        let net = IrregularSpec::new(nodes, roads).build(seed).unwrap();
        let cost = link_cost(kind, seed);
        let masked = |l: LinkId| unit(seed, l.index()) * 100.0 < mask_pct as f64;
        check_trees_match_dijkstra(&net, &cost, &masked)?;
    }

    /// Dijkstra's cost equals the brute-force optimum on random networks.
    #[test]
    fn dijkstra_is_optimal(seed in 0u64..500, nodes in 4usize..9) {
        let roads = nodes + 2;
        let net = IrregularSpec::new(nodes, roads).build(seed).unwrap();
        let from = NodeId(0);
        let to = NodeId(nodes - 1);
        let d = dijkstra(&net, from, to, &|l| l.length_m).unwrap();
        let brute = brute_force_shortest(&net, from, to).unwrap();
        prop_assert!((d.cost - brute).abs() < 1e-9, "dijkstra {} vs brute {}", d.cost, brute);
        prop_assert!(d.is_connected(&net));
        prop_assert!(d.is_simple(&net));
    }

    /// Yen's paths are sorted, unique, simple, connected, and the first
    /// one matches Dijkstra.
    #[test]
    fn yen_structural_invariants(seed in 0u64..500, nodes in 5usize..9, k in 1usize..5) {
        let roads = nodes + 3;
        let net = IrregularSpec::new(nodes, roads).build(seed).unwrap();
        let from = NodeId(0);
        let to = NodeId(nodes - 1);
        let cost_fn = |l: &roadnet::Link| l.length_m;
        let paths = k_shortest_paths(&net, from, to, k, &cost_fn).unwrap();
        prop_assert!(!paths.is_empty() && paths.len() <= k);
        let d = dijkstra(&net, from, to, &cost_fn).unwrap();
        prop_assert!((paths[0].cost - d.cost).abs() < 1e-9);
        for w in paths.windows(2) {
            prop_assert!(w[0].cost <= w[1].cost + 1e-9);
            prop_assert!(w[0].links != w[1].links);
        }
        for p in &paths {
            prop_assert!(p.is_connected(&net));
            prop_assert!(p.is_simple(&net));
            // reported cost matches the link costs
            let actual: f64 = p.links.iter().map(|&l| net.links()[l.index()].length_m).sum();
            prop_assert!((p.cost - actual).abs() < 1e-9);
        }
    }

    /// Generated irregular networks always meet their spec.
    #[test]
    fn irregular_generator_meets_spec(seed in 0u64..300, nodes in 4usize..20) {
        let roads = (nodes + seed as usize % 5).min(nodes * (nodes - 1) / 2);
        let net = IrregularSpec::new(nodes, roads).build(seed).unwrap();
        prop_assert_eq!(net.num_nodes(), nodes);
        prop_assert_eq!(net.num_roads(), roads);
        prop_assert!(net.is_strongly_connected());
        // link lengths positive, attributes sane
        for l in net.links() {
            prop_assert!(l.length_m > 0.0);
            prop_assert!(l.lanes >= 1);
            prop_assert!(l.speed_limit_mps > 0.0);
        }
    }
}

/// A mask that cuts a grid in two: every pair across the cut is `NoPath`
/// from the tree exactly as from the early-exit search.
#[test]
fn tree_reports_the_same_no_path_pairs_as_dijkstra() {
    let net = GridSpec::new(3, 4).build(7);
    // Close every link that crosses between columns 1 and 2.
    let crosses = |l: LinkId| {
        let link = &net.links()[l.index()];
        let col = |n: NodeId| n.index() % 4;
        (col(link.from) <= 1) != (col(link.to) <= 1)
    };
    let no_path = check_trees_match_dijkstra(&net, &|l| l.length_m, &crosses).unwrap();
    // 6 nodes on each side, each cut off from the 6 on the other.
    assert_eq!(no_path, 2 * 6 * 6);
}
