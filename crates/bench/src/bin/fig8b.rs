//! Fig. 8(b): findRCKs runtime vs m (number of RCKs), card(Σ) = 2000.
//!
//! Includes the paper's headline point: 50 RCKs from 2000 MDs in well under
//! 100 seconds.
//!
//! Usage: `cargo run --release -p matchrules-bench --bin fig8b [quick|paper]`

use matchrules_bench::experiments::fig8_findrcks_seconds;
use matchrules_bench::table::Table;
use matchrules_bench::Scale;

fn main() {
    let scale = Scale::from_args();
    let (card, ms, y_lens): (usize, Vec<usize>, Vec<usize>) = match scale {
        Scale::Paper => (2000, (1..=10).map(|i| i * 5).collect(), vec![6, 8, 10, 12]),
        Scale::Quick => (600, vec![5, 15, 25], vec![6, 10]),
    };
    println!("Fig. 8(b) — findRCKs runtime (seconds) vs m, card(Sigma) = {card}\n");
    let header: Vec<String> =
        std::iter::once("m".to_owned()).chain(y_lens.iter().map(|y| format!("|Y|={y}"))).collect();
    let mut table = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for &m in &ms {
        let mut cells = vec![m.to_string()];
        for &y in &y_lens {
            let secs = fig8_findrcks_seconds(card, y, m, 0x8b);
            cells.push(format!("{secs:.4}"));
        }
        table.row(cells);
    }
    println!("{}", table.render());
    println!("Paper shape: grows with m and |Y|; 50 RCKs from 2000 MDs in < 100 s.");
}
