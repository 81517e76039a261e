//! Ablation — per-column scheme choice on TPC-H.
//!
//! §3.1 "Choosing Compression Schemes": the materialization operator
//! samples each chunk and picks the scheme and width automatically. This
//! table shows what the analyzer decides for every scannable lineitem and
//! orders column, the estimated and realized bits/value, and what the
//! *other* schemes would have cost — quantifying how much the automatic
//! choice matters. The rows come from [`scc_bench::ablation_schemes_rows`];
//! a unit test pins them to `results/exp_ablation_schemes.txt`.
//!
//! Environment: `SCC_SF` (default 0.02).

use scc_bench::env_f64;

fn main() {
    let metrics = scc_bench::metrics::init();
    let sf = env_f64("SCC_SF", 0.02);
    eprintln!("generating TPC-H at SF {sf}...");
    let rows = scc_bench::ablation_schemes_rows(sf);
    println!("analyzer decisions per column (bits/value; 64-bit raw)");
    println!(
        "{:<18} {:<10} {:<4} {:>7} {:>11} | best per family (est)",
        "column", "scheme", "", "est", ""
    );
    for row in rows {
        println!("{row}");
    }
    println!("\nexpected: sorted keys -> PFOR-DELTA; clustered dates/prices -> PFOR;");
    println!("tiny domains (quantity, discount, tax, linenumber) -> PFOR or PDICT at");
    println!("the domain width; the chosen family should match the per-family minimum.");
    metrics.finish();
}
