//! Wall-clock experiments: the search-time panels of Figures 2 and 4.
//!
//! * *explicit* (pointer-based) search — Figure 2 top-right, Figure 4
//!   top-right;
//! * *implicit* (pointer-less) search — Figure 4 bottom-left;
//! * *index computation only* (no memory accesses) — Figure 4
//!   bottom-right.

use super::Config;
use crate::report::Table;
use crate::timing::median_time;
use cobtree_core::NamedLayout;
use cobtree_search::workload::UniformKeys;
use cobtree_search::{ExplicitTree, IndexOnlySearcher, SearchTree, Storage};

fn keys_for(h: u32, count: usize, seed: u64) -> Vec<u64> {
    UniformKeys::for_height(h, seed).take_vec(count)
}

/// Mean explicit (pointer-based) search time in ns, per layout and height.
#[must_use]
pub fn explicit_search_time(cfg: &Config, layouts: &[NamedLayout], name: &str) -> Table {
    let mut cols = vec!["h".to_string()];
    cols.extend(layouts.iter().map(|l| l.label().to_string()));
    let mut t = Table {
        name: name.into(),
        title: "Pointer-based (explicit) mean search time, ns/search".into(),
        columns: cols,
        rows: Vec::new(),
    };
    for h in cfg.timing_heights.clone() {
        let keys = keys_for(h, cfg.searches, cfg.seed);
        let mut row = vec![h.to_string()];
        for &l in layouts {
            let layout = l.materialize(h);
            let tree = ExplicitTree::<u64>::with_rank_keys(&layout);
            let ns = median_time(cfg.repeats, keys.len() as u64, || {
                tree.search_batch_checksum(&keys)
            });
            row.push(format!("{ns:.1}"));
        }
        t.push_row(row);
    }
    t
}

/// Mean implicit (pointer-less) search time in ns.
#[must_use]
pub fn implicit_search_time(cfg: &Config, layouts: &[NamedLayout]) -> Table {
    let mut cols = vec!["h".to_string()];
    cols.extend(layouts.iter().map(|l| l.label().to_string()));
    let mut t = Table {
        name: "fig4_implicit_time".into(),
        title: "Fig 4 (bottom-left): pointer-less mean search time, ns/search".into(),
        columns: cols,
        rows: Vec::new(),
    };
    for h in cfg.timing_heights.clone() {
        let keys = keys_for(h, cfg.searches / 2, cfg.seed);
        let all: Vec<u64> = (1..=(1u64 << h) - 1).collect();
        let mut row = vec![h.to_string()];
        for &l in layouts {
            let tree = SearchTree::builder()
                .layout(l)
                .storage(Storage::Implicit)
                .keys(all.iter().copied())
                .build()
                .expect("complete key set");
            let ns = median_time(cfg.repeats, keys.len() as u64, || {
                tree.search_batch_checksum(&keys)
            });
            row.push(format!("{ns:.1}"));
        }
        t.push_row(row);
    }
    t
}

/// Mean index-computation time in ns (§IV-E: keys inferred from the BFS
/// index, so searches execute no memory accesses).
#[must_use]
pub fn index_computation_time(cfg: &Config, layouts: &[NamedLayout]) -> Table {
    let mut cols = vec!["h".to_string()];
    cols.extend(layouts.iter().map(|l| l.label().to_string()));
    let mut t = Table {
        name: "fig4_index_time".into(),
        title: "Fig 4 (bottom-right): index computation time (no memory), ns/search".into(),
        columns: cols,
        rows: Vec::new(),
    };
    for h in cfg.timing_heights.clone() {
        let keys = keys_for(h, cfg.searches / 2, cfg.seed);
        let mut row = vec![h.to_string()];
        for &l in layouts {
            let idx = l.indexer(h);
            let searcher = IndexOnlySearcher::new(idx.as_ref());
            let ns = median_time(cfg.repeats, keys.len() as u64, || {
                searcher.search_batch_checksum(&keys)
            });
            row.push(format!("{ns:.1}"));
        }
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_table_shape() {
        let cfg = Config::tiny();
        let layouts = [NamedLayout::PreVeb, NamedLayout::MinWep];
        let t = explicit_search_time(&cfg, &layouts, "test");
        assert_eq!(t.columns.len(), 3);
        assert!(!t.rows.is_empty());
        for row in &t.rows {
            for cell in &row[1..] {
                assert!(cell.parse::<f64>().unwrap() > 0.0);
            }
        }
    }
}
