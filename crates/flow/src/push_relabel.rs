//! FIFO push–relabel max-flow with the gap heuristic.
//!
//! Not a production kernel: the allocation network always runs Dinic
//! ([`dinic`](crate::dinic)). Push–relabel stays as an independent oracle —
//! it shares no traversal logic with Dinic, so the property tests that
//! compare the two max-flow values catch bugs neither suite would alone.
//! It therefore owns its working buffers instead of borrowing a
//! [`FlowScratch`](crate::FlowScratch).
//!
//! The gap heuristic tracks how many nodes sit at each height below `n`;
//! when a height empties, every node stranded above the gap (and below `n`)
//! is provably cut off from the sink and is lifted straight to `n + 1`, so
//! its excess drains back to the source without climbing one relabel at a
//! time.
//!
//! The kernel computes the max flow **from scratch**: any pre-existing
//! flow is cleared on entry. The returned value is the excess accumulated
//! at the sink.

use crate::bitset::BitSet;
use crate::graph::{Csr, FlowNetwork, NodeId};
use amf_numeric::{min2, Scalar};
use std::collections::VecDeque;

/// Compute a maximum flow from `source` to `sink` with FIFO push–relabel.
/// Any pre-existing flow is cleared. Returns the max-flow value.
pub fn max_flow<S: Scalar>(net: &mut FlowNetwork<S>, source: NodeId, sink: NodeId) -> S {
    assert!(source != sink, "max_flow: source == sink");
    net.reset_flow();
    let n = net.node_count();
    let mut csr = Csr::default();
    net.ensure_csr(&mut csr);
    let mut fifo = VecDeque::new();
    let mut height = vec![0u32; n];
    let mut excess = vec![S::ZERO; n];
    let mut in_queue = BitSet::new();
    in_queue.reset(n);
    // Heights range over `0..=2n + 1`.
    let mut gap = vec![0u32; 2 * n + 2];

    height[source as usize] = n as u32;
    // Gap counts cover every node except the source (pinned at `n`); the
    // sink sits permanently at height 0, so no height in `1..n` can look
    // empty merely because the sink was excluded.
    gap[0] = (n - 1) as u32;

    // Saturate all source edges.
    let (src_lo, src_hi) = csr.range(source as usize);
    for i in src_lo..src_hi {
        let e = csr.targets[i];
        let res = net.residual(e);
        if res.is_positive() {
            let to = net.head(e);
            net.add_flow(e, res);
            excess[to as usize] += res;
            if to != sink && to != source && !in_queue.get(to as usize) {
                in_queue.set(to as usize);
                fifo.push_back(to);
            }
        }
    }

    while let Some(v) = fifo.pop_front() {
        in_queue.clear_bit(v as usize);
        discharge(
            net,
            v,
            sink,
            source,
            &csr,
            &mut height,
            &mut excess,
            &mut fifo,
            &mut in_queue,
            &mut gap,
        );
    }

    // Max flow equals the excess the algorithm accumulated at the sink.
    excess[sink as usize]
}

#[allow(clippy::too_many_arguments)]
fn discharge<S: Scalar>(
    net: &mut FlowNetwork<S>,
    v: NodeId,
    sink: NodeId,
    source: NodeId,
    csr: &Csr,
    height: &mut [u32],
    excess: &mut [S],
    fifo: &mut std::collections::VecDeque<NodeId>,
    in_queue: &mut BitSet,
    gap: &mut [u32],
) {
    let n = net.node_count();
    let v = v as usize;
    let (lo, hi) = csr.range(v);
    while excess[v].is_positive() {
        let mut pushed_any = false;
        for i in lo..hi {
            if !excess[v].is_positive() {
                break;
            }
            let e = csr.targets[i];
            let to = net.head(e) as usize;
            let res = net.residual(e);
            if res.is_positive() && height[v] == height[to] + 1 {
                let delta = min2(excess[v], res);
                net.add_flow(e, delta);
                excess[v] -= delta;
                excess[to] += delta;
                pushed_any = true;
                let to_id = to as NodeId;
                if to_id != sink && to_id != source && !in_queue.get(to) {
                    in_queue.set(to);
                    fifo.push_back(to_id);
                }
            }
        }
        if !excess[v].is_positive() {
            break;
        }
        if !pushed_any {
            // Relabel: one above the lowest admissible neighbour.
            let mut min_h = u32::MAX;
            for &e in &csr.targets[lo..hi] {
                if net.residual(e).is_positive() {
                    min_h = min_h.min(height[net.head(e) as usize]);
                }
            }
            if min_h == u32::MAX {
                // No residual edges at all: excess is stuck (can only happen
                // with zero-capacity inputs); drop it.
                break;
            }
            let h_old = height[v];
            let h_new = min_h + 1;
            height[v] = h_new;
            gap[h_old as usize] -= 1;
            gap[h_new as usize] += 1;
            if (h_old as usize) < n && gap[h_old as usize] == 0 {
                // Gap heuristic: height `h_old` just emptied below `n`, so
                // no node above it can reach the sink any more. Lift every
                // node stranded in `(h_old, n)` — including `v` if its new
                // height landed there — straight past `n` so its excess
                // drains back to the source.
                let lifted = (n + 1) as u32;
                for u in 0..n {
                    if u == source as usize {
                        continue;
                    }
                    let hu = height[u];
                    if hu > h_old && hu < n as u32 {
                        gap[hu as usize] -= 1;
                        gap[lifted as usize] += 1;
                        height[u] = lifted;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dinic;
    use amf_numeric::Rational;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn agrees_with_dinic_on_diamond() {
        let build = || {
            let mut g: FlowNetwork<f64> = FlowNetwork::new(4);
            g.add_edge(0, 1, 3.0);
            g.add_edge(0, 2, 2.0);
            g.add_edge(1, 2, 5.0);
            g.add_edge(1, 3, 2.0);
            g.add_edge(2, 3, 3.0);
            g
        };
        let mut g1 = build();
        let mut g2 = build();
        assert_eq!(dinic::max_flow(&mut g1, 0, 3), max_flow(&mut g2, 0, 3));
    }

    #[test]
    fn agrees_with_dinic_on_random_bipartite_graphs() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let jobs = rng.gen_range(1..8usize);
            let sites = rng.gen_range(1..6usize);
            let n = 2 + jobs + sites;
            let (s, t) = (0, 1);
            let mut g1: FlowNetwork<f64> = FlowNetwork::new(n);
            for j in 0..jobs {
                g1.add_edge(s, (2 + j) as NodeId, rng.gen_range(0..20) as f64);
                for k in 0..sites {
                    if rng.gen_bool(0.6) {
                        g1.add_edge(
                            (2 + j) as NodeId,
                            (2 + jobs + k) as NodeId,
                            rng.gen_range(0..10) as f64,
                        );
                    }
                }
            }
            for k in 0..sites {
                g1.add_edge((2 + jobs + k) as NodeId, t, rng.gen_range(0..25) as f64);
            }
            let mut g2 = g1.clone();
            let f1 = dinic::max_flow(&mut g1, s, t);
            let f2 = max_flow(&mut g2, s, t);
            assert!((f1 - f2).abs() < 1e-9, "dinic={f1} pr={f2}");
        }
    }

    #[test]
    fn exact_rational_agreement() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let n = rng.gen_range(4..9usize);
            let mut g1: FlowNetwork<Rational> = FlowNetwork::new(n);
            for _ in 0..(2 * n) {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if a != b {
                    g1.add_edge(
                        a as NodeId,
                        b as NodeId,
                        Rational::new(rng.gen_range(0..12), rng.gen_range(1..5)),
                    );
                }
            }
            let mut g2 = g1.clone();
            let f1 = dinic::max_flow(&mut g1, 0, (n - 1) as NodeId);
            let f2 = max_flow(&mut g2, 0, (n - 1) as NodeId);
            assert_eq!(f1, f2);
        }
    }

    #[test]
    fn zero_capacity_network() {
        let mut g: FlowNetwork<f64> = FlowNetwork::new(3);
        g.add_edge(0, 1, 0.0);
        g.add_edge(1, 2, 5.0);
        assert_eq!(max_flow(&mut g, 0, 2), 0.0);
    }

    #[test]
    fn gap_heuristic_handles_dead_end_chains() {
        // A long chain hanging off the source that cannot reach the sink:
        // its excess must drain back through the gap-lift path.
        let mut g: FlowNetwork<f64> = FlowNetwork::new(8);
        g.add_edge(0, 2, 5.0); // source -> dead-end chain
        g.add_edge(2, 3, 5.0);
        g.add_edge(3, 4, 5.0);
        g.add_edge(0, 5, 2.0); // source -> live path
        g.add_edge(5, 1, 1.5);
        let f = max_flow(&mut g, 0, 1);
        assert!((f - 1.5).abs() < 1e-12);
        // Flow conservation: nothing is stranded mid-network.
        for v in 2..8 {
            assert!(g.net_outflow(v).abs() < 1e-12, "excess stuck at {v}");
        }
    }
}
