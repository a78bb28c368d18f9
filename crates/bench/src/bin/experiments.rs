//! Experiment driver: regenerates every table/figure of the paper's
//! evaluation section on the in-memory substrate.
//!
//! Usage:
//!
//! ```text
//! experiments [--full] [--list] [id ...]
//! ```
//!
//! * with no ids, every experiment runs (Fig. 9(a)–(f), the merged-CFD study
//!   and the ablations);
//! * `--full` uses parameters close to the paper's (larger data and tableaux;
//!   substantially slower);
//! * `--list` prints the available experiment ids and exits.
//!
//! Output is Markdown: one table per experiment.

use cfd_bench::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let quick = !full;
    if args.iter().any(|a| a == "--list") {
        println!(
            "available experiments: fig9a fig9b fig9c fig9d fig9e fig9f merged \
             ablation-detectors ablation-mincover"
        );
        return;
    }
    let ids: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    println!(
        "# CFD detection experiments ({} mode)\n",
        if quick { "quick" } else { "full" }
    );

    let experiments = if ids.is_empty() {
        experiments::all(quick)
    } else {
        let mut selected = Vec::new();
        for id in ids {
            match experiments::by_id(id, quick) {
                Some(e) => selected.push(e),
                None => {
                    eprintln!("unknown experiment id `{id}` (use --list)");
                    std::process::exit(2);
                }
            }
        }
        selected
    };

    for experiment in experiments {
        print!("{}", experiment.to_markdown());
    }
}
