//! Deterministic trace-tree assembly, the human tree printer, and the
//! JSON exporter/validator.

use std::collections::BTreeMap;

use crate::json::Value;
use crate::{CounterRecord, SpanRecord, NO_PARENT};

/// One node of an assembled trace tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceNode {
    /// Phase name.
    pub name: &'static str,
    /// Ordinal for repeated phases (`coarsen[3]`), if any.
    pub index: Option<u64>,
    /// Start offset from the tracer epoch, nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration, nanoseconds.
    pub duration_ns: u64,
    /// Counters attached to this span, summed per name, in name order.
    pub counters: Vec<(&'static str, u64)>,
    /// Child phases, ordered by `(name, index, start_ns)` — deterministic
    /// across thread interleavings.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// The value of a counter on this node, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// First child with the given name.
    pub fn child(&self, name: &str) -> Option<&TraceNode> {
        self.children.iter().find(|c| c.name == name)
    }
}

/// An assembled trace: the forest of root spans recorded by one tracer.
/// In pipeline use there is exactly one root (`decompose` or `spmv`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Root spans, ordered like children (`(name, index, start_ns)`).
    pub roots: Vec<TraceNode>,
}

impl Trace {
    /// Builds the tree from raw records. Orphans (spans whose parent was
    /// never recorded — e.g. the sink was snapshotted while the parent
    /// was still open) are promoted to roots rather than dropped.
    /// Children are ordered by `(name, index, start_ns)`, so the tree is
    /// identical for serial and fork-join runs of a deterministic
    /// algorithm up to timing fields.
    pub fn from_records(spans: &[SpanRecord], counters: &[CounterRecord]) -> Trace {
        // Counters per span id, summed per name.
        let mut per_span: BTreeMap<u64, BTreeMap<&'static str, u64>> = BTreeMap::new();
        for c in counters {
            let slot = per_span
                .entry(c.span)
                .or_default()
                .entry(c.name)
                .or_insert(0);
            *slot = slot.saturating_add(c.value);
        }
        // Group child ids under each parent; remember which ids exist.
        let by_id: BTreeMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
        let mut kids: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut roots: Vec<u64> = Vec::new();
        for s in spans {
            if s.parent != NO_PARENT && by_id.contains_key(&s.parent) {
                kids.entry(s.parent).or_default().push(s.id);
            } else {
                roots.push(s.id);
            }
        }
        fn build(
            id: u64,
            by_id: &BTreeMap<u64, &SpanRecord>,
            kids: &BTreeMap<u64, Vec<u64>>,
            per_span: &mut BTreeMap<u64, BTreeMap<&'static str, u64>>,
        ) -> Option<TraceNode> {
            let rec = by_id.get(&id)?;
            let mut children: Vec<TraceNode> = kids
                .get(&id)
                .into_iter()
                .flatten()
                .filter_map(|&c| build(c, by_id, kids, per_span))
                .collect();
            children
                .sort_by(|a, b| (a.name, a.index, a.start_ns).cmp(&(b.name, b.index, b.start_ns)));
            let counters: Vec<(&'static str, u64)> = per_span
                .remove(&id)
                .map(|m| m.into_iter().collect())
                .unwrap_or_default();
            Some(TraceNode {
                name: rec.name,
                index: rec.index,
                start_ns: rec.start_ns,
                duration_ns: rec.duration_ns,
                counters,
                children,
            })
        }
        let mut root_nodes: Vec<TraceNode> = roots
            .into_iter()
            .filter_map(|id| build(id, &by_id, &kids, &mut per_span))
            .collect();
        root_nodes
            .sort_by(|a, b| (a.name, a.index, a.start_ns).cmp(&(b.name, b.index, b.start_ns)));
        Trace { roots: root_nodes }
    }

    /// Every node of the forest, depth-first.
    pub fn nodes(&self) -> Vec<&TraceNode> {
        fn walk<'a>(n: &'a TraceNode, out: &mut Vec<&'a TraceNode>) {
            out.push(n);
            for c in &n.children {
                walk(c, out);
            }
        }
        let mut out = Vec::new();
        for r in &self.roots {
            walk(r, &mut out);
        }
        out
    }

    /// First root with the given name.
    pub fn root(&self, name: &str) -> Option<&TraceNode> {
        self.roots.iter().find(|r| r.name == name)
    }

    /// Total duration per phase name, summed over the whole forest, in
    /// name order. The basis for per-phase breakdown columns.
    pub fn phase_totals(&self) -> Vec<(&'static str, u64)> {
        let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        for n in self.nodes() {
            let slot = totals.entry(n.name).or_insert(0);
            *slot = slot.saturating_add(n.duration_ns);
        }
        totals.into_iter().collect()
    }

    /// Renders the forest as a human-readable tree (the `--trace` output):
    ///
    /// ```text
    /// decompose                                 5.12ms
    /// ├─ model-build                          611.0µs
    /// ├─ partition                             4.31ms
    /// │  └─ run[0]                             4.29ms
    /// └─ decode                               101.3µs
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.roots {
            render_node(r, "", "", &mut out);
        }
        out
    }

    /// The forest as a JSON array of span objects (schema `fgh-trace/1`,
    /// see DESIGN.md §5.5), members in name order:
    ///
    /// ```json
    /// [{"children": [ … ], "counters": {"fm_moves": 88},
    ///   "duration_ns": 512345, "index": null, "name": "decompose",
    ///   "start_ns": 0}]
    /// ```
    pub fn to_value(&self) -> Value {
        Value::Arr(self.roots.iter().map(node_value).collect())
    }

    /// [`Trace::to_value`] serialized to a compact JSON string.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }
}

fn render_node(n: &TraceNode, pad: &str, child_pad: &str, out: &mut String) {
    let mut label = String::new();
    label.push_str(pad);
    label.push_str(n.name);
    if let Some(i) = n.index {
        label.push_str(&format!("[{i}]"));
    }
    let dur = human_duration(n.duration_ns);
    let width = 44usize;
    if label.len() + 2 + dur.len() < width {
        out.push_str(&label);
        out.push_str(&" ".repeat(width - label.len() - dur.len()));
        out.push_str(&dur);
    } else {
        out.push_str(&label);
        out.push_str("  ");
        out.push_str(&dur);
    }
    if !n.counters.is_empty() {
        let parts: Vec<String> = n.counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
        out.push_str("  {");
        out.push_str(&parts.join(", "));
        out.push('}');
    }
    out.push('\n');
    // Children are stored in deterministic `(name, index)` order; show
    // them to the human in execution order instead.
    let mut order: Vec<&TraceNode> = n.children.iter().collect();
    order.sort_by_key(|c| (c.start_ns, c.name, c.index));
    let last = order.len().saturating_sub(1);
    for (i, c) in order.into_iter().enumerate() {
        let (branch, cont) = if i == last {
            ("└─ ", "   ")
        } else {
            ("├─ ", "│  ")
        };
        render_node(
            c,
            &format!("{child_pad}{branch}"),
            &format!("{child_pad}{cont}"),
            out,
        );
    }
}

/// Formats nanoseconds with an adaptive unit (`812ns`, `45.2µs`,
/// `12.3ms`, `1.24s`).
pub fn human_duration(ns: u64) -> String {
    let nsf = ns as f64;
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", nsf / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", nsf / 1e6)
    } else {
        format!("{:.2}s", nsf / 1e9)
    }
}

fn node_value(n: &TraceNode) -> Value {
    let num = |v: u64| Value::Num(v as f64);
    let counters = n.counters.iter().map(|&(k, v)| (k.to_string(), num(v)));
    let mut span = BTreeMap::new();
    span.insert("name".to_string(), Value::Str(n.name.to_string()));
    span.insert("index".to_string(), n.index.map_or(Value::Null, num));
    span.insert("start_ns".to_string(), num(n.start_ns));
    span.insert("duration_ns".to_string(), num(n.duration_ns));
    span.insert("counters".to_string(), Value::Obj(counters.collect()));
    let children = n.children.iter().map(node_value).collect();
    span.insert("children".to_string(), Value::Arr(children));
    Value::Obj(span)
}

/// Validates a parsed JSON value against the `fgh-trace/1` span-tree
/// schema ([`Trace::to_value`]'s output): an array of span objects,
/// each with exactly the members `name` (string), `index` (integer or
/// null), `start_ns`/`duration_ns` (non-negative integers), `counters`
/// (object mapping names to non-negative integers), and `children` (an
/// array of span objects, recursively). Returns the first violation as a
/// `path: problem` message.
pub fn validate_trace_value(v: &Value) -> Result<(), String> {
    fn span_list(v: &Value, path: &str) -> Result<(), String> {
        let arr = v.as_arr().ok_or(format!("{path}: expected an array"))?;
        for (i, s) in arr.iter().enumerate() {
            span(s, &format!("{path}[{i}]"))?;
        }
        Ok(())
    }
    fn span(v: &Value, path: &str) -> Result<(), String> {
        let obj = v.as_obj().ok_or(format!("{path}: expected an object"))?;
        for key in obj.keys() {
            if !matches!(
                key.as_str(),
                "name" | "index" | "start_ns" | "duration_ns" | "counters" | "children"
            ) {
                return Err(format!("{path}: unknown member {key:?}"));
            }
        }
        obj.get("name")
            .and_then(|n| n.as_str())
            .ok_or(format!("{path}.name: expected a string"))?;
        match obj.get("index") {
            Some(i) if i.is_null() || i.as_u64().is_some() => {}
            _ => return Err(format!("{path}.index: expected an integer or null")),
        }
        for field in ["start_ns", "duration_ns"] {
            obj.get(field)
                .and_then(|n| n.as_u64())
                .ok_or(format!("{path}.{field}: expected a non-negative integer"))?;
        }
        let counters = obj
            .get("counters")
            .and_then(|c| c.as_obj())
            .ok_or(format!("{path}.counters: expected an object"))?;
        for (k, cv) in counters {
            cv.as_u64().ok_or(format!(
                "{path}.counters.{k}: expected a non-negative integer"
            ))?;
        }
        span_list(
            obj.get("children").unwrap_or(&Value::Null),
            &format!("{path}.children"),
        )
    }
    span_list(v, "trace")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, index: Option<u64>, start: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            index,
            start_ns: start,
            duration_ns: 100,
        }
    }

    #[test]
    fn assembles_and_orders_deterministically() {
        // Completion order is children-before-parents and shuffled across
        // "threads"; the tree must still come out sorted.
        let spans = vec![
            rec(4, 2, "fm-pass", Some(1), 30),
            rec(3, 2, "fm-pass", Some(0), 20),
            rec(2, 1, "refine", Some(0), 10),
            rec(5, 1, "coarsen", Some(0), 5),
            rec(1, 0, "decompose", None, 0),
        ];
        let counters = vec![
            CounterRecord {
                span: 3,
                name: "moves",
                value: 7,
            },
            CounterRecord {
                span: 3,
                name: "moves",
                value: 3,
            },
        ];
        let t = Trace::from_records(&spans, &counters);
        assert_eq!(t.roots.len(), 1);
        let root = &t.roots[0];
        assert_eq!(root.name, "decompose");
        let names: Vec<_> = root.children.iter().map(|c| c.name).collect();
        assert_eq!(names, vec!["coarsen", "refine"]);
        let refine = root.child("refine").unwrap();
        assert_eq!(refine.children[0].index, Some(0));
        assert_eq!(refine.children[1].index, Some(1));
        assert_eq!(refine.children[0].counter("moves"), Some(10));
    }

    #[test]
    fn orphans_become_roots() {
        let spans = vec![rec(7, 99, "lost", None, 0)];
        let t = Trace::from_records(&spans, &[]);
        assert_eq!(t.roots.len(), 1);
        assert_eq!(t.roots[0].name, "lost");
    }

    #[test]
    fn phase_totals_sum_across_forest() {
        let spans = vec![
            rec(1, 0, "a", None, 0),
            rec(2, 1, "b", Some(0), 0),
            rec(3, 1, "b", Some(1), 0),
        ];
        let t = Trace::from_records(&spans, &[]);
        assert_eq!(t.phase_totals(), vec![("a", 100), ("b", 200)]);
    }

    #[test]
    fn json_round_trips_and_validates() {
        let spans = vec![
            rec(1, 0, "decompose", None, 0),
            rec(2, 1, "coarsen", Some(0), 3),
        ];
        let counters = vec![CounterRecord {
            span: 2,
            name: "vertices",
            value: 42,
        }];
        let t = Trace::from_records(&spans, &counters);
        let text = t.to_json();
        let v = crate::json::parse(&text).unwrap();
        validate_trace_value(&v).unwrap();
        let root = &v.as_arr().unwrap()[0];
        assert_eq!(root.get("name").unwrap().as_str(), Some("decompose"));
        let child = &root.get("children").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            child
                .get("counters")
                .unwrap()
                .get("vertices")
                .unwrap()
                .as_u64(),
            Some(42)
        );
    }

    #[test]
    fn validator_rejects_malformed_spans() {
        for bad in [
            r#"{"name":"x"}"#,
            r#"[{"name":1,"index":null,"start_ns":0,"duration_ns":0,"counters":{},"children":[]}]"#,
            r#"[{"name":"x","index":-1,"start_ns":0,"duration_ns":0,"counters":{},"children":[]}]"#,
            r#"[{"name":"x","index":null,"start_ns":0,"duration_ns":0,"counters":{"c":"no"},"children":[]}]"#,
            r#"[{"name":"x","index":null,"start_ns":0,"duration_ns":0,"counters":{},"children":[],"extra":1}]"#,
            r#"[{"name":"x","index":null,"start_ns":0,"duration_ns":0,"counters":{},"children":[{}]}]"#,
        ] {
            let v = crate::json::parse(bad).unwrap();
            assert!(validate_trace_value(&v).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn render_draws_a_tree() {
        let spans = vec![
            rec(1, 0, "decompose", None, 0),
            rec(2, 1, "model-build", None, 1),
            rec(3, 1, "partition", None, 2),
            rec(4, 3, "run", Some(0), 3),
            rec(5, 1, "decode", None, 4),
        ];
        let t = Trace::from_records(&spans, &[]);
        let s = t.render();
        assert!(s.contains("decompose"));
        assert!(s.contains("├─ model-build"));
        assert!(s.contains("│  └─ run[0]"), "render:\n{s}");
        assert!(
            s.contains("└─ decode"),
            "execution order, decode last:\n{s}"
        );
        assert_eq!(s.lines().count(), 5);
    }

    #[test]
    fn human_duration_units() {
        assert_eq!(human_duration(812), "812ns");
        assert_eq!(human_duration(45_200), "45.2µs");
        assert_eq!(human_duration(12_300_000), "12.30ms");
        assert_eq!(human_duration(1_240_000_000), "1.24s");
    }
}
