//! Fig. 8(a): findRCKs runtime vs card(Σ), m = 20, |Y1| ∈ {6, 8, 10, 12}.
//!
//! Usage: `cargo run --release -p matchrules-bench --bin fig8a [quick|paper]`

use matchrules_bench::experiments::fig8_findrcks_seconds;
use matchrules_bench::table::Table;
use matchrules_bench::Scale;

fn main() {
    let scale = Scale::from_args();
    let (cards, y_lens): (Vec<usize>, Vec<usize>) = match scale {
        Scale::Paper => ((1..=10).map(|i| i * 200).collect(), vec![6, 8, 10, 12]),
        Scale::Quick => (vec![200, 400, 600], vec![6, 10]),
    };
    println!("Fig. 8(a) — findRCKs runtime (seconds) vs card(Sigma), m = 20\n");
    let mut table = Table::new(
        &std::iter::once("card(Sigma)".to_owned())
            .chain(y_lens.iter().map(|y| format!("|Y|={y}")))
            .collect::<Vec<_>>()
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
    );
    for &card in &cards {
        let mut cells = vec![card.to_string()];
        for &y in &y_lens {
            let secs = fig8_findrcks_seconds(card, y, 20, 0x8a);
            cells.push(format!("{secs:.4}"));
        }
        table.row(cells);
    }
    println!("{}", table.render());
    println!("Paper shape: near-linear growth in card(Sigma); larger |Y| is slower.");
}
