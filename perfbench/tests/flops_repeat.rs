//! Per-layer flop and byte counts repeat exactly across two traced runs
//! of the same seed. This file holds a single test so that no other
//! test thread charges the process-wide kernel counters meanwhile.

use perfbench::layers;
use perfbench::workload::{Sizes, Workload};
use std::collections::BTreeMap;

fn counts(w: Workload) -> BTreeMap<(u64, &'static str, usize), (u64, u64)> {
    let t = layers::traced(w, 11, 0.0, Sizes::tiny()).unwrap();
    let mut seen: BTreeMap<(u64, &'static str), usize> = BTreeMap::new();
    let mut out = BTreeMap::new();
    for s in t.tracer.spans() {
        let k = seen.entry((s.request, s.name)).or_default();
        out.insert((s.request, s.name, *k), (s.flops, s.bytes));
        *k += 1;
    }
    out
}

#[test]
fn traced_counts_repeat_exactly() {
    for w in Workload::ALL {
        let a = counts(w);
        assert!(a.values().any(|&(f, b)| f > 0 && b > 0), "{}", w.name());
        assert_eq!(a, counts(w), "{}", w.name());
    }
}
