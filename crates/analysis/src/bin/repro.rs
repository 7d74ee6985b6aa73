//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--full] [--out DIR] <experiment>...
//!
//! experiments:
//!   fig1    block transitions + edge CDF (Fig 1)
//!   fig2    nu0, beta{2,5,16}, L1/L2 miss rates, explicit search time (Fig 2)
//!   fig3    objective-optimal layout comparison + layout generation time (Fig 3)
//!   fig4    nu0 (10 layouts), explicit/implicit/index times (Fig 4)
//!   fig5    h=6 functional table vs the paper (Fig 5)
//!   table1  nomenclature (Table I)
//!   study   the §IV-C cut-height study
//!   ablate  design-choice ablations
//!   validate  analytic-vs-simulated beta
//!   storage   SearchTree facade: explicit vs implicit vs index-only
//!   range     ordered-query workloads: cursor range scans + sorted batches
//!   serve     zero-copy persistence: mapped tree files vs heap backends
//!   forest    sharded serving engine: parity, replay parity, throughput
//!             (also writes the BENCH_forest.json artifact)
//!   kernel    descent kernels: slow-path vs kernel L1-block-sequence
//!             parity assert + reference/kernel/interleaved timings
//!   adaptive  traffic-adaptive layouts: zipf replay miss reduction
//!             assert + hot-swap ordered-surface parity
//!   all     everything above
//! ```

use cobtree_analysis::experiments::{
    adaptive_exp, cache, extensions, facade_exp, forest_exp, kernel_exp, locality, range_exp,
    serve_exp, study_exp, timing_exp, Config,
};
use cobtree_analysis::report::Table;
use cobtree_core::NamedLayout;
use std::path::PathBuf;
use std::time::Instant;

fn emit(cfg: &Config, tables: Vec<Table>) {
    for t in tables {
        match t.write_csv(&cfg.results_dir) {
            Ok(path) => println!("{}\n(written to {})\n", t.to_markdown(), path.display()),
            Err(e) => eprintln!("failed to write {}: {e}", t.name),
        }
    }
}

fn run(cfg: &Config, what: &str) {
    let start = Instant::now();
    match what {
        "fig1" => emit(
            cfg,
            vec![
                locality::fig1_block_transitions(cfg),
                locality::fig1_edge_cdf(cfg),
            ],
        ),
        "fig2" => {
            let mut tables = vec![locality::nu0_vs_height(
                cfg,
                &NamedLayout::FIG2_SET,
                "fig2_nu0",
                "Fig 2 (top-left): weighted edge product vs tree height",
            )];
            tables.extend(locality::fig2_beta_vs_height(cfg));
            tables.extend(cache::fig2_miss_rates(cfg));
            tables.push(timing_exp::explicit_search_time(
                cfg,
                &NamedLayout::FIG2_SET,
                "fig2_explicit_time",
            ));
            emit(cfg, tables);
        }
        "fig3" => emit(
            cfg,
            vec![
                locality::fig3_objective_layouts(cfg),
                timing_exp::layout_generation_time(cfg),
            ],
        ),
        "fig4" => {
            let tables = vec![
                locality::nu0_vs_height(
                    cfg,
                    &NamedLayout::FIG4_SET,
                    "fig4_nu0",
                    "Fig 4 (top-left): weighted edge product, all layouts",
                ),
                timing_exp::explicit_search_time(cfg, &NamedLayout::FIG4_SET, "fig4_explicit_time"),
                timing_exp::implicit_search_time(cfg, &NamedLayout::FIG4_SET),
                timing_exp::index_computation_time(cfg, &NamedLayout::FIG4_SET),
            ];
            emit(cfg, tables);
        }
        "fig5" => emit(cfg, vec![locality::fig5_table()]),
        "table1" => emit(cfg, vec![locality::table1_nomenclature()]),
        "study" => emit(cfg, vec![study_exp::study_table(cfg)]),
        "ablate" => emit(
            cfg,
            vec![
                study_exp::cut_height_ablation(cfg),
                study_exp::subscript_ablation(cfg),
                study_exp::alternation_ablation(cfg),
                study_exp::weight_model_ablation(cfg),
                cache::policy_ablation(cfg),
            ],
        ),
        "validate" => emit(cfg, vec![cache::beta_validation(cfg)]),
        "storage" => emit(
            cfg,
            vec![
                facade_exp::storage_backend_comparison(cfg),
                facade_exp::backend_iteration_demo(cfg),
            ],
        ),
        "range" => emit(
            cfg,
            vec![
                range_exp::range_scan_backend_comparison(cfg),
                range_exp::sorted_batch_comparison(cfg),
                range_exp::ordered_interchange_check(cfg),
            ],
        ),
        "serve" => emit(
            cfg,
            vec![
                serve_exp::mapped_vs_implicit_block_transfers(cfg),
                serve_exp::format_geometry_table(cfg),
                serve_exp::mapped_search_time(cfg),
            ],
        ),
        "forest" => emit(
            cfg,
            vec![
                forest_exp::single_tree_parity(cfg),
                forest_exp::replay_parity(cfg),
                forest_exp::throughput_table(cfg),
            ],
        ),
        "kernel" => emit(
            cfg,
            vec![
                kernel_exp::kernel_block_parity(cfg),
                kernel_exp::fat_block_savings(cfg),
                kernel_exp::kernel_paths_table(cfg),
            ],
        ),
        "adaptive" => emit(
            cfg,
            vec![
                adaptive_exp::reoptimization_miss_table(cfg),
                adaptive_exp::hot_swap_parity_table(cfg),
            ],
        ),
        "extend" => emit(
            cfg,
            vec![
                extensions::range_scan_experiment(cfg),
                extensions::compression_experiment(cfg),
                extensions::skew_experiment(cfg),
                extensions::unrestricted_probe(cfg),
            ],
        ),
        "all" => {
            for w in [
                "table1", "fig5", "fig1", "fig2", "fig3", "fig4", "study", "ablate", "validate",
                "storage", "range", "serve", "forest", "kernel", "adaptive", "extend",
            ] {
                run(cfg, w);
            }
        }
        other => {
            eprintln!("unknown experiment '{other}' — see --help");
            std::process::exit(2);
        }
    }
    eprintln!("[{what} done in {:.1?}]", start.elapsed());
}

fn main() {
    let mut cfg = Config::quick();
    let mut targets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--full" => {
                let dir = cfg.results_dir.clone();
                cfg = Config::full();
                cfg.results_dir = dir;
            }
            "--out" => {
                cfg.results_dir = PathBuf::from(args.next().expect("--out needs a directory"));
            }
            "--help" | "-h" => {
                println!("usage: repro [--full] [--out DIR] <fig1|fig2|fig3|fig4|fig5|table1|study|ablate|validate|storage|range|serve|forest|kernel|adaptive|extend|all>...");
                return;
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    for t in targets {
        run(&cfg, &t);
    }
}
