//! Fixed-format table printing for the experiment harnesses, so every
//! `exp <name>` run regenerates its figure/table in the same shape.

/// One line series: a label and one value per x position.
#[derive(Debug, Clone)]
pub struct Series {
    pub label: String,
    pub values: Vec<f64>,
}

impl Series {
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            values: Vec::new(),
        }
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }
}

/// Print a matrix: rows = x values, columns = series.
pub fn print_table(title: &str, x_label: &str, xs: &[String], series: &[Series]) {
    println!("== {title}");
    print!("{:>12}", x_label);
    for s in series {
        print!(" {:>14}", s.label);
    }
    println!();
    for (i, x) in xs.iter().enumerate() {
        print!("{x:>12}");
        for s in series {
            match s.values.get(i) {
                Some(v) if v.abs() >= 1000.0 => print!(" {:>14.0}", v),
                Some(v) => print!(" {:>14.3}", v),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
    println!();
}

/// Print a per-kind fault breakdown for one run: messages sent plus
/// the drop/duplicate/retransmit counters kept by
/// [`dsm_net::NetStats`].
pub fn print_fault_table(title: &str, stats: &dsm_net::NetStats) {
    println!("== {title}");
    println!(
        "{:>14} {:>10} {:>12} {:>8} {:>8} {:>8}",
        "kind", "msgs", "bytes", "dropped", "dup", "rexmit"
    );
    for (kind, k, dropped, dup, rexmit) in stats.iter_faults() {
        println!(
            "{:>14} {:>10} {:>12} {:>8} {:>8} {:>8}",
            kind, k.count, k.bytes, dropped, dup, rexmit
        );
    }
    println!(
        "{:>14} {:>10} {:>12} {:>8} {:>8} {:>8}",
        "TOTAL",
        stats.total_msgs(),
        stats.total_bytes(),
        stats.total_dropped(),
        stats.total_duplicated(),
        stats.total_retransmits()
    );
    if stats.crashes + stats.recoveries + stats.crash_dropped + stats.partition_dropped > 0 {
        println!(
            "{:>14} crashes={} recoveries={} crash_dropped={} partition_dropped={}",
            "FAULTS", stats.crashes, stats.recoveries, stats.crash_dropped, stats.partition_dropped
        );
    }
    println!();
}

/// Convenience: integer x axis.
pub fn xs_of<T: std::fmt::Display>(xs: &[T]) -> Vec<String> {
    xs.iter().map(|x| x.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accumulates() {
        let mut s = Series::new("a");
        s.push(1.0);
        s.push(2.0);
        assert_eq!(s.values, vec![1.0, 2.0]);
        assert_eq!(s.label, "a");
    }

    #[test]
    fn xs_formats() {
        assert_eq!(xs_of(&[1u32, 16]), vec!["1", "16"]);
    }
}
