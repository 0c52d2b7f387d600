//! Regenerates Table 3: the ten evaluated configurations.
fn main() {
    println!("\nTable 3. Evaluated configurations");
    println!("---------------------------------");
    println!(
        "{:12} {:>6} {:>12} {:>6}  name",
        "architect.", "clus", "issue width", "buses"
    );
    let table3 = rcmc_sim::plan::ConfigSpec::group("table3").resolve();
    for c in table3.expect("the table3 group resolves") {
        let t = rcmc_sim::config::topology_name(c.core.topology);
        println!(
            "{:12} {:>6} {:>12} {:>6}  {}",
            t,
            c.core.n_clusters,
            format!("{} INT + {} FP", c.core.iw_int, c.core.iw_fp),
            c.core.n_buses,
            c.name
        );
    }
}
