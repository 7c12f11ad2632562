//! Regenerates the paper's evaluation figures (Sections 11 and 12).
//!
//! ```text
//! cargo run --release -p tb-bench --bin figures -- <11|12|13|14|15|16|17|all>
//! ```
//!
//! Each figure prints its row table followed by the shape the paper reports
//! for it. Set `TB_BENCH_FULL=1` for paper-scale parameters; `all` runs every
//! figure in sequence (several minutes even at the default quick scale).

use tb_bench::figures::{
    run_fig11, run_fig12, run_fig13, run_fig14, run_fig15, run_fig16, run_fig17,
};
use tb_bench::Scale;

/// One figure: its number, its sweep, and the shape the paper reports.
struct Figure {
    number: &'static str,
    run: fn(Scale),
    paper_shape: &'static str,
}

const FIGURES: [Figure; 7] = [
    Figure {
        number: "11",
        run: |scale| drop(run_fig11(scale)),
        paper_shape: "Thunderbolt and OCC keep scaling past 8 executors while 2PL-No-Wait\n\
         degrades; Thunderbolt has the lowest re-execution count (~50% of OCC,\n\
         ~10% of 2PL-No-Wait).",
    },
    Figure {
        number: "12",
        run: |scale| drop(run_fig12(scale)),
        paper_shape: "at θ = 0.75 Thunderbolt and OCC are comparable; as θ grows to 0.9 OCC\n\
         drops sharply while Thunderbolt stays ahead. With Pr = 1 all engines are\n\
         similar; more writes favour Thunderbolt over OCC and 2PL.",
    },
    Figure {
        number: "13",
        run: |scale| drop(run_fig13(scale)),
        paper_shape: "Thunderbolt reaches ~500K tps at 64 replicas vs ~11K tps for Tusk (50x);\n\
         Thunderbolt-OCC trails Thunderbolt at scale; WAN latencies shrink the\n\
         latency gap because network delay dominates.",
    },
    Figure {
        number: "14",
        run: |scale| drop(run_fig14(scale)),
        paper_shape: "both Thunderbolt variants decline as P grows; Thunderbolt stays well\n\
         above Thunderbolt-OCC at moderate P (64K vs 16K tps at P=8%) and still\n\
         beats Tusk when every transaction is cross-shard.",
    },
    Figure {
        number: "15",
        run: |scale| drop(run_fig15(scale)),
        paper_shape: "very small K' (frequent DAG transitions) costs throughput; from\n\
         K' >= 1000 the system is stable and latency improves slightly.",
    },
    Figure {
        number: "16",
        run: |scale| drop(run_fig16(scale)),
        paper_shape: "per-round runtime stays flat (~0.07-0.1s) across the run — the\n\
         reconfigurations never stall commit progress.",
    },
    Figure {
        number: "17",
        run: |scale| drop(run_fig17(scale)),
        paper_shape: "with f=1 or f=2 crashed replicas throughput drops moderately (78K/66K\n\
         tps at P=0 vs 100K healthy) but latency stays stable thanks to the\n\
         DAG's leader rotation.",
    },
];

fn main() {
    let which = std::env::args().nth(1).unwrap_or_default();
    let selected: Vec<_> = FIGURES
        .iter()
        .filter(|figure| which == "all" || which == figure.number)
        .collect();
    if selected.is_empty() {
        eprintln!("usage: figures <11|12|13|14|15|16|17|all>");
        std::process::exit(2);
    }
    let scale = Scale::from_env();
    for figure in selected {
        println!(
            "Thunderbolt reproduction — Figure {} (scale: {scale:?})",
            figure.number
        );
        (figure.run)(scale);
        println!("\nPaper shape: {}\n", figure.paper_shape);
    }
}
