//! The per-layer cost ledger and the metric catalogue.
//!
//! For each workload and engine the ledger splits the traced run's
//! thread time per offered packet — wall time × the threads serving the
//! run — into layer terms, a per-visit cost times the visits per packet
//! the run's counters report, plus a leftover: ring waits, thread
//! handoff, idling, waiting for a core and everything no layer term
//! names. Thread time rather than wall time is the base, so the terms
//! of a multi-threaded engine (whose layers run in parallel) still add
//! up to one total.

/// One ledger term: `cost_ns × visits` ns per offered packet.
#[derive(Debug, Clone, PartialEq)]
pub struct Term {
    /// Layer name.
    pub name: String,
    /// Cost per visit, ns.
    pub cost_ns: f64,
    /// Visits per offered packet.
    pub visits: f64,
}

impl Term {
    /// A term.
    pub fn new(name: impl Into<String>, cost_ns: f64, visits: f64) -> Term {
        Term {
            name: name.into(),
            cost_ns,
            visits,
        }
    }

    /// ns per offered packet.
    pub fn ns(&self) -> f64 {
        self.cost_ns * self.visits
    }
}

/// One engine's ledger on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Engine label.
    pub engine: &'static str,
    /// End-to-end thread ns per offered packet.
    pub total_ns: f64,
    /// Layer terms.
    pub terms: Vec<Term>,
    /// `total_ns` minus every term.
    pub leftover_ns: f64,
}

impl Ledger {
    /// Assemble a ledger; the leftover is whatever the terms leave of
    /// the total.
    pub fn new(engine: &'static str, total_ns: f64, terms: Vec<Term>) -> Ledger {
        let named: f64 = terms.iter().map(Term::ns).sum();
        Ledger {
            engine,
            total_ns,
            terms,
            leftover_ns: total_ns - named,
        }
    }

    /// The self-check: every term and the leftover are finite and
    /// non-negative, and terms plus leftover reproduce the total.
    pub fn check(&self) -> Result<(), String> {
        let mut errs = Vec::new();
        for t in &self.terms {
            if !(t.cost_ns.is_finite() && t.cost_ns >= 0.0) {
                errs.push(format!("{}: cost {} ns", t.name, t.cost_ns));
            }
            if !(t.visits.is_finite() && t.visits >= 0.0) {
                errs.push(format!("{}: {} visits/pkt", t.name, t.visits));
            }
        }
        if !(self.leftover_ns.is_finite() && self.leftover_ns >= 0.0) {
            errs.push(format!(
                "leftover {:.1} ns/pkt: the layer terms exceed the end-to-end {:.1} ns/pkt",
                self.leftover_ns, self.total_ns
            ));
        }
        let sum: f64 = self.terms.iter().map(Term::ns).sum::<f64>() + self.leftover_ns;
        if (sum - self.total_ns).abs() > 1e-6 * self.total_ns.abs().max(1.0) {
            errs.push(format!("terms + leftover {sum} != total {}", self.total_ns));
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(format!("{} ledger: {}", self.engine, errs.join("; ")))
        }
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut s = format!(
            "ledger {} (thread ns per offered packet)\n  {:<14} {:>10} {:>8} {:>10} {:>6}\n",
            self.engine, "layer", "ns/visit", "visits", "ns/pkt", "share"
        );
        let share = |ns: f64| 100.0 * ns / self.total_ns;
        for t in &self.terms {
            s += &format!(
                "  {:<14} {:>10.1} {:>8.3} {:>10.1} {:>5.1}%\n",
                t.name,
                t.cost_ns,
                t.visits,
                t.ns(),
                share(t.ns())
            );
        }
        s += &format!(
            "  {:<14} {:>10} {:>8} {:>10.1} {:>5.1}%\n  {:<14} {:>10} {:>8} {:>10.1}\n",
            "leftover",
            "",
            "",
            self.leftover_ns,
            share(self.leftover_ns),
            "total",
            "",
            "",
            self.total_ns
        );
        s
    }
}

/// A metric's name and unit.
pub type MetricDef = (String, &'static str);

/// End-to-end metrics (`--trace 0`).
pub fn end_to_end() -> Vec<MetricDef> {
    [
        ("sync.mpps", "Mpps"),
        ("threaded.mpps", "Mpps"),
        ("sharded2.mpps", "Mpps"),
        ("threaded.lat_p50_us", "us"),
        ("threaded.lat_p99_us", "us"),
        ("buffers_per_pkt", "buf/pkt"),
        ("correct_frac", "frac"),
        ("setup_s", "s"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect()
}

/// NF types whose bodies get their own (standalone) per-layer metrics.
pub const NF_TYPES: [&str; 5] = ["IDS", "VPN", "Monitor", "Firewall", "LB"];

/// Stage groups of the engines' telemetry histograms.
pub const STAGE_GROUPS: [&str; 5] = ["classifier", "nf", "agent", "merger", "collector"];

/// Per-layer metrics (`--trace 1`).
pub fn per_layer() -> Vec<MetricDef> {
    let mut v: Vec<(String, &'static str)> = [
        ("io.read_ns_per_pkt", "ns"),
        ("io.write_ns_per_pkt", "ns"),
        ("orchestrator.compile_us", "us"),
        ("engine.new_us", "us"),
        ("engine.spinup_us", "us"),
        ("classifier.admit_ns_per_pkt", "ns"),
        ("classifier.reject_frac", "frac"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for nf in NF_TYPES {
        v.push((format!("nf.{nf}.ns_per_pkt"), "ns"));
        v.push((format!("nf.{nf}.drop_frac"), "frac"));
    }
    v.push(("nf.body_ns_per_pkt".to_string(), "ns"));
    for (n, u) in [
        ("pool.header_copy_ns", "ns"),
        ("pool.insert_release_ns", "ns"),
        ("merger.merge_ns", "ns"),
        ("merger.merges_per_pkt", "1/pkt"),
        ("merger.nil_per_pkt", "1/pkt"),
        ("agent.route_ns_per_pkt", "ns"),
        ("collector.collect_ns_per_pkt", "ns"),
        ("ring.hop_ns", "ns"),
        ("ring.xthread_hop_ns", "ns"),
    ] {
        v.push((n.to_string(), u));
    }
    for e in ["sync", "threaded", "sharded2"] {
        for (n, u) in [
            ("thread_ns_per_pkt", "ns"),
            ("leftover_ns_per_pkt", "ns"),
            ("cpu_busy_frac", "frac"),
            ("stage_threads", "count"),
            ("trace_overhead_pct", "%"),
        ] {
            v.push((format!("{e}.{n}"), u));
        }
        for g in STAGE_GROUPS {
            v.push((format!("{e}.stage.{g}.mean_ns"), "ns"));
        }
        if e != "sync" {
            v.push((format!("{e}.backpressure"), "1/kpkt"));
            for g in STAGE_GROUPS {
                v.push((format!("{e}.ring.high_water.{g}"), "count"));
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_adds_up_and_flags_negative_terms() {
        let l = Ledger::new(
            "sync",
            1000.0,
            vec![
                Term::new("classifier", 100.0, 1.0),
                Term::new("nf.IDS", 400.0, 1.5),
            ],
        );
        assert_eq!(l.leftover_ns, 300.0);
        l.check().unwrap();

        let over = Ledger::new("sync", 500.0, vec![Term::new("nf.IDS", 400.0, 1.5)]);
        assert!(over.check().unwrap_err().contains("leftover"));

        let neg = Ledger::new("sync", 500.0, vec![Term::new("classifier", -1.0, 1.0)]);
        assert!(neg.check().unwrap_err().contains("classifier"));

        let nan = Ledger::new("sync", 500.0, vec![Term::new("agent", f64::NAN, 1.0)]);
        assert!(nan.check().is_err());
    }

    #[test]
    fn catalogue_names_are_unique_and_valid() {
        let mut all: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|m| m.0)
            .collect();
        assert!(per_layer().len() <= 128);
        for n in &all {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let len = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), len, "duplicate metric names");
    }

    /// BENCHMARK.json lists exactly the metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let listed = json.matches("\"unit\"").count();
        let ours = end_to_end().len() + per_layer().len();
        assert_eq!(listed, ours, "metric count");
        for (name, unit) in end_to_end().into_iter().chain(per_layer()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
