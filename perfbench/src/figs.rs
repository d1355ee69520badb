//! `figs-quick`: every quick table `all_figs --quick` prints, regenerated
//! in-process through the public figure modules, in the same order.

use noc_experiments::figs;
use noc_experiments::FigTable;
use noc_traffic::TrafficPattern;

/// One artifact: a name and the call that regenerates its tables.
pub struct Artifact {
    pub name: &'static str,
    pub run: fn() -> Vec<FigTable>,
}

fn fig08_quick() -> Vec<FigTable> {
    TrafficPattern::PAPER
        .into_iter()
        .map(|pattern| figs::fig08::panel(pattern, 4, true))
        .collect()
}

/// The artifacts, cheapest first and fig08 last, as `all_figs` orders them.
pub const ARTIFACTS: [Artifact; 13] = [
    Artifact {
        name: "fig07",
        run: || vec![figs::fig07::run()],
    },
    Artifact {
        name: "table1",
        run: || vec![figs::table1::run(true)],
    },
    Artifact {
        name: "table3",
        run: || vec![figs::table3::run(true)],
    },
    Artifact {
        name: "footnote4",
        run: || vec![figs::footnote4::run(true)],
    },
    Artifact {
        name: "ablation",
        run: || vec![figs::ablation::run(true)],
    },
    Artifact {
        name: "fig11",
        run: || vec![figs::fig11::run(true)],
    },
    Artifact {
        name: "fig10",
        run: || figs::fig10::run(true),
    },
    Artifact {
        name: "fig13",
        run: || vec![figs::fig13::run(true)],
    },
    Artifact {
        name: "fig12",
        run: || figs::fig12::run(true),
    },
    Artifact {
        name: "fig09",
        run: || figs::fig09::run(true),
    },
    Artifact {
        name: "fig14",
        run: || figs::fig14::run(true),
    },
    Artifact {
        name: "fig15",
        run: || vec![figs::fig15::run(true)],
    },
    Artifact {
        name: "fig08",
        run: fig08_quick,
    },
];

/// The text `all_figs` prints for `tables` (one `println!` per table).
pub fn render(tables: &[FigTable]) -> String {
    tables.iter().map(|t| format!("{t}\n")).collect()
}

/// Table rows in `tables`.
pub fn rows(tables: &[FigTable]) -> usize {
    tables.iter().map(|t| t.rows.len()).sum()
}
