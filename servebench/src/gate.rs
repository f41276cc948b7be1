//! The correctness gate: every `OK` ranking is checked against an
//! in-process `ExactPower` oracle built on the same regenerated graph.

use std::collections::{BTreeMap, BTreeSet};

use meloppr::backend::ExactPower;
use meloppr::graph::{CsrGraph, NodeId};
use meloppr::{precision_at_k, BackendKind, PprBackend, PprParams, QueryRequest, Ranking};

use crate::workload::K;

/// Exact top-k rankings for every seed the run will ask about.
pub struct Oracle {
    top: BTreeMap<NodeId, Ranking>,
}

impl Oracle {
    /// Computes the oracle rankings for `seeds`, split over two threads.
    pub fn build(graph: &CsrGraph, seeds: &BTreeSet<NodeId>) -> Result<Oracle, String> {
        let params = PprParams::new(0.85, 6, K).map_err(|e| e.to_string())?;
        let seeds: Vec<NodeId> = seeds.iter().copied().collect();
        let (left, right) = seeds.split_at(seeds.len() / 2);
        let solve = |part: &[NodeId]| -> Result<Vec<(NodeId, Ranking)>, String> {
            let exact = ExactPower::new(graph, params).map_err(|e| e.to_string())?;
            part.iter()
                .map(|&seed| {
                    exact
                        .query(&QueryRequest::new(seed))
                        .map(|outcome| (seed, outcome.ranking))
                        .map_err(|e| format!("oracle query for seed {seed}: {e}"))
                })
                .collect()
        };
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| solve(left));
            let b = solve(right);
            (a.join().expect("oracle thread panicked"), b)
        });
        Ok(Oracle {
            top: a?.into_iter().chain(b?).collect(),
        })
    }

    pub fn top(&self, seed: NodeId) -> Option<&Ranking> {
        self.top.get(&seed)
    }
}

/// The verdict on one `OK` ranking: its precision@k against the oracle,
/// or why it is wrong.
pub fn check(
    oracle: &Oracle,
    seed: NodeId,
    backend: BackendKind,
    ranking: &Ranking,
) -> Result<f64, String> {
    let truth = oracle
        .top(seed)
        .ok_or_else(|| format!("no oracle ranking for seed {seed}"))?;
    let mut seen = BTreeSet::new();
    for &(node, _) in ranking {
        if !seen.insert(node) {
            return Err(format!("node {node} appears twice"));
        }
    }
    if let Some((node, score)) = ranking.iter().find(|(_, s)| !s.is_finite()) {
        return Err(format!("node {node} has non-finite score {score}"));
    }
    if let Some(pair) = ranking.windows(2).find(|w| w[1].1 > w[0].1) {
        return Err(format!("scores increase: {:?} then {:?}", pair[0], pair[1]));
    }
    if ranking.len() > K {
        return Err(format!("{} entries for k={K}", ranking.len()));
    }
    // The wire carries shortest-roundtrip floats, so an exact backend's
    // answer must equal the oracle bit for bit.
    if backend == BackendKind::ExactPower {
        let same = ranking.len() == truth.len()
            && ranking
                .iter()
                .zip(truth)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
        if !same {
            return Err(format!(
                "exact-power ranking {ranking:?} != oracle {truth:?}"
            ));
        }
    }
    Ok(precision_at_k(ranking, truth, K))
}
