//! Figure 20: sensitivity to TreeLing size (20a) and integrity-tree
//! metadata cache size (20b). One representative mix per class; IPC
//! normalized to IvLeague-Basic at the default configuration, as in the
//! paper.

use ivl_bench::{emit, find, run_config, run_matrix_on, run_points};
use ivl_sim_core::config::SystemConfig;
use ivl_sim_core::stats::gmean;
use ivl_simulator::{run_mix_with_config, SchemeKind};
use ivl_workloads::mixes::{mix_by_name, Mix};

const SCHEMES: [SchemeKind; 3] = [SchemeKind::IvBasic, SchemeKind::IvInvert, SchemeKind::IvPro];

/// One grid point of a sensitivity sweep: (config label, scheme, mix).
struct Point {
    label: &'static str,
    cfg: SystemConfig,
    scheme: SchemeKind,
    mix: Mix,
    mix_idx: usize,
}

/// Runs all grid points in parallel and folds them back into per-(label,
/// scheme) geometric means over the mixes, preserving sweep order.
fn sweep_rows(
    points: &[Point],
    labels: &[&'static str],
    run: &ivl_simulator::RunConfig,
    ref_ipc: &[f64],
) -> String {
    let workers = ivl_bench::available_workers();
    let ipcs = run_points(
        points,
        workers,
        |p| format!("{:<22} {:<14} {}", p.label, p.scheme.label(), p.mix.name),
        |p| run_mix_with_config(&p.mix, p.scheme, run, &p.cfg).weighted_ipc(),
    );
    let mut text = String::new();
    for label in labels {
        let mut row = format!("{label:<22}");
        for scheme in SCHEMES {
            let vals: Vec<f64> = points
                .iter()
                .zip(&ipcs)
                .filter(|(p, _)| p.label == *label && p.scheme == scheme)
                .map(|(p, ipc)| ipc / ref_ipc[p.mix_idx])
                .collect();
            row.push_str(&format!(" {:>15.3}", gmean(&vals)));
        }
        text.push_str(&row);
        text.push('\n');
    }
    text
}

fn main() {
    let run = run_config();
    let mixes = [
        *mix_by_name("S-1").unwrap(),
        *mix_by_name("M-1").unwrap(),
        *mix_by_name("L-1").unwrap(),
    ];

    // Reference: IvLeague-Basic at defaults.
    let reference = run_matrix_on(&mixes, &[SchemeKind::IvBasic], &run);
    let ref_ipc: Vec<f64> = mixes
        .iter()
        .map(|m| find(&reference, m.name, SchemeKind::IvBasic).weighted_ipc())
        .collect();

    let mut text = String::from(
        "Figure 20a: IPC vs TreeLing size (normalized to IvLeague-Basic at the default)\n",
    );
    // Intra-TreeLing level sweep; coverage = 8^levels pages. The paper's
    // 8/64/512 MB labels correspond to three/four/five intra-TreeLing
    // levels; our geometry note (DESIGN.md) maps levels 4/5/6.
    text.push_str(&format!(
        "{:<22} {:>16} {:>16} {:>14}\n",
        "TreeLing", "IvLeague-Basic", "IvLeague-Invert", "IvLeague-Pro"
    ));
    let size_labels = ["16MiB(\"8MB\")", "128MiB(\"64MB\")", "1GiB(\"512MB\")"];
    let mut size_points = Vec::new();
    for (levels, label) in [
        (4usize, size_labels[0]),
        (5, size_labels[1]),
        (6, size_labels[2]),
    ] {
        let mut cfg = SystemConfig::default();
        cfg.ivleague.treeling_levels = levels;
        cfg.ivleague.treeling_count = match levels {
            4 => 8192,
            5 => 4096,
            _ => 512,
        };
        for scheme in SCHEMES {
            for (mi, m) in mixes.iter().enumerate() {
                size_points.push(Point {
                    label,
                    cfg: cfg.clone(),
                    scheme,
                    mix: *m,
                    mix_idx: mi,
                });
            }
        }
    }
    text.push_str(&sweep_rows(&size_points, &size_labels, &run, &ref_ipc));

    text.push_str(
        "\nFigure 20b: IPC vs integrity-tree metadata cache size (normalized as above)\n",
    );
    text.push_str(&format!(
        "{:<22} {:>16} {:>16} {:>14}\n",
        "tree cache", "IvLeague-Basic", "IvLeague-Invert", "IvLeague-Pro"
    ));
    let cache_labels = ["64KiB", "128KiB", "256KiB", "512KiB", "1024KiB"];
    let mut cache_points = Vec::new();
    for (kib, label) in [64usize, 128, 256, 512, 1024].into_iter().zip(cache_labels) {
        let mut cfg = SystemConfig::default();
        cfg.secure.tree_cache.capacity_bytes = kib * 1024;
        for scheme in SCHEMES {
            for (mi, m) in mixes.iter().enumerate() {
                cache_points.push(Point {
                    label,
                    cfg: cfg.clone(),
                    scheme,
                    mix: *m,
                    mix_idx: mi,
                });
            }
        }
    }
    text.push_str(&sweep_rows(&cache_points, &cache_labels, &run, &ref_ipc));
    emit("fig20_sensitivity.txt", &text);
}
