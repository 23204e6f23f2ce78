//! `fxprobe replay`: re-executes every cell of one or more campaign
//! specs on one thread, calling the same public layer functions the
//! campaign executor calls, in the same order and with the same
//! derived seeds, and wraps each call in a span. The replayed metrics
//! are compared with the journal the real `fxnet` run wrote: for
//! `prune` and `prune2` cells the whole metric vector must match bit
//! for bit, for the other algorithms the metrics the replay computes.

use crate::tracer::Tracer;
use fx_campaign::{
    aggregate, cell_params, expand, Algo, CampaignSpec, Cell, CellResult, ChurnCurves, FaultSpec,
    Journal, Params,
};
use fx_core::{BoundsSummary, BuiltScenario, Scenario};
use fx_expansion::certificate::{edge_expansion_bounds, node_expansion_bounds, Effort};
use fx_expansion::lanczos::lanczos_lambda2;
use fx_expansion::matvec::CompactComponent;
use fx_expansion::{Cut, ExpansionBounds};
use fx_faults::{apply_faults, targeted_order, FaultModel, RandomNodeFaults};
use fx_graph::boundary::edge_cut_size;
use fx_graph::components::{component_stats_with, gamma, gamma_with};
use fx_graph::distance::diameter_two_sweep;
use fx_graph::dyncon::{resweep_curve, solve_curve};
use fx_graph::traversal::bfs_ball;
use fx_graph::{CsrGraph, NodeSet, Scratch};
use fx_percolation::{crossing_fraction, gamma_removal_curve, SweepScratch};
use fx_prune::{
    compactify, dissect, is_compact, prune, prune2, theorem21, theorem34_applicable,
    theorem34_max_epsilon, theorem34_max_p, CutStrategy,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

/// Seed salt of the scenario build stream (the campaign executor's
/// constant: builds and algorithms draw from distinct streams).
const BUILD_SALT: u64 = 0x6A09_E667_F3BC_C908;
/// Certificates of cells with this replicate index also get a side
/// replay of their Lanczos solve, to count its iterations.
const LANCZOS_SAMPLE_REPLICATE: usize = 0;

/// Counters gathered along the replay (work done, not time).
#[derive(Default)]
struct Counts {
    builds: u64,
    fault_samples: u64,
    percolation_trials: u64,
    prune_iterations: u64,
    cert_calls: u64,
    cert_repeats: u64,
    lanczos_solves: u64,
    lanczos_iters: u64,
    seen_certs: HashSet<(u64, u64)>,
}

/// Per-cell replay context: the tracer plus the counters.
struct Ctx {
    tr: Tracer,
    counts: Counts,
    graph_id: u64,
    sample_lanczos: bool,
}

/// FNV-1a (the store's hash) over 64-bit words.
fn hash_words(words: impl Iterator<Item = u64>) -> u64 {
    fx_store::fnv1a(&words.flat_map(u64::to_le_bytes).collect::<Vec<u8>>())
}

/// Identity of a graph: its adjacency lists, each led by a separator.
fn graph_id(g: &CsrGraph) -> u64 {
    hash_words(
        g.nodes().flat_map(|v| {
            std::iter::once(u64::MAX).chain(g.neighbors(v).iter().map(|&u| u as u64))
        }),
    )
}

#[derive(Clone, Copy)]
enum Objective {
    Node,
    Edge,
}

impl Ctx {
    /// One expansion certificate (`node_expansion_bounds` /
    /// `edge_expansion_bounds`), with the repeat and Lanczos counters.
    fn cert(
        &mut self,
        obj: Objective,
        g: &CsrGraph,
        alive: &NodeSet,
        rng: &mut SmallRng,
    ) -> ExpansionBounds {
        let key = (self.graph_id, hash_words(alive.as_words().iter().copied()));
        self.counts.cert_calls += 1;
        if !self.counts.seen_certs.insert(key) {
            self.counts.cert_repeats += 1;
        }
        let before = self.sample_lanczos.then(|| rng.clone());
        let b = self.tr.time("expansion.cert", || match obj {
            Objective::Node => node_expansion_bounds(g, alive, Effort::Auto, rng),
            Objective::Edge => edge_expansion_bounds(g, alive, Effort::Auto, rng),
        });
        // The spectral route (not exact, not trivial) starts with one
        // Lanczos solve on the largest component; re-run it from the
        // same RNG state, in a `probe.` span that no layer counts, to
        // read its iterations.
        if let Some(mut r) = before {
            if !b.exact && alive.len() >= 2 {
                let solved = self.tr.time("probe.lanczos", || {
                    CompactComponent::largest(g, alive)
                        .and_then(|comp| lanczos_lambda2(&comp, 160, 1e-9, &mut r))
                });
                if let Some(l) = solved {
                    self.counts.lanczos_solves += 1;
                    self.counts.lanczos_iters += l.iterations as u64;
                }
            }
        }
        b
    }

    fn fault_model<'a>(
        &mut self,
        fault: &FaultSpec,
        built: &'a BuiltScenario,
    ) -> Box<dyn FaultModel + 'a> {
        self.tr.time("faults.build", || {
            fault
                .build(built.sub.as_ref())
                .expect("fault × scenario validated at spec parse time")
        })
    }

    /// `FaultModel::sample` + `apply_faults`: the failed and the alive
    /// masks.
    fn sample(
        &mut self,
        model: &dyn FaultModel,
        g: &CsrGraph,
        rng: &mut SmallRng,
    ) -> (NodeSet, NodeSet) {
        self.counts.fault_samples += 1;
        self.tr.time("faults.sample", || {
            let failed = model.sample(g, rng);
            let alive = apply_faults(g, &failed);
            (failed, alive)
        })
    }
}

type Metrics = Vec<(String, f64)>;

fn m(name: &str, v: f64) -> (String, f64) {
    (name.to_string(), v)
}

/// Replays one cell; returns the metrics the replay computed.
fn replay_cell(cx: &mut Ctx, spec: &CampaignSpec, cell: &Cell) -> Result<Metrics, String> {
    let params = &cell_params(spec, cell);
    let root = cx.tr.enter("cell");
    let scenario = Scenario::from_spec(&cell.graph)?;
    let build_span = if matches!(scenario, Scenario::Overlay { .. }) {
        "overlay.build"
    } else {
        "scenario.build"
    };
    cx.counts.builds += 1;
    let built = cx
        .tr
        .time(build_span, || scenario.build(cell.seed ^ BUILD_SALT));
    cx.graph_id = cx.tr.time("probe.graph_id", || graph_id(&built.net.graph));
    cx.sample_lanczos = cell.replicate == LANCZOS_SAMPLE_REPLICATE;
    let g = &built.net.graph;
    let n = built.net.n();
    let mut rng = SmallRng::seed_from_u64(cell.seed);
    let mut out = match cell.algo {
        Algo::Prune => replay_prune(cx, &built, cell, params)?,
        Algo::Prune2 => replay_prune2(cx, &built, cell, params)?,
        Algo::Percolation => match &cell.fault {
            FaultSpec::Random { p } if params.trials <= 1 => {
                cx.counts.percolation_trials += 1;
                let g_frac = cx.tr.time("percolation.site", || {
                    let alive = fx_percolation::sample_alive_nodes(n, 1.0 - p, &mut rng);
                    fx_percolation::gamma_site(g, &alive)
                });
                vec![m("gamma", g_frac)]
            }
            FaultSpec::Targeted { frac, by } => {
                let order = cx.tr.time("faults.order", || targeted_order(g, *by));
                let mut fracs: Vec<f64> = (0..=params.grid)
                    .map(|i| i as f64 / params.grid as f64)
                    .collect();
                fracs.push(*frac);
                cx.counts.percolation_trials += 1;
                let curve = cx.tr.time("percolation.sweep", || {
                    gamma_removal_curve(g, &order, &fracs, &mut SweepScratch::new())
                });
                let grid_curve = &curve[..=params.grid];
                vec![
                    m("gamma", curve[params.grid + 1]),
                    m(
                        "f_star_targeted",
                        crossing_fraction(&fracs[..=params.grid], grid_curve, params.gamma),
                    ),
                ]
            }
            other => return Err(format!("replay: percolation × {other} is not replayed")),
        },
        Algo::ExpansionCert => {
            let model = cx.fault_model(&cell.fault, &built);
            let (failed, alive) = cx.sample(model.as_ref(), g, &mut rng);
            if alive.is_empty() {
                vec![m("faults", failed.len() as f64)]
            } else {
                let a = cx.cert(Objective::Node, g, &alive, &mut rng);
                let ae = cx.cert(Objective::Edge, g, &alive, &mut rng);
                let gm = cx.tr.time("graph.traverse", || gamma(g, &alive));
                vec![
                    m("faults", failed.len() as f64),
                    m("gamma", gm),
                    m("alpha_upper", a.upper.min(1e6)),
                    m("alpha_e_upper", ae.upper.min(1e6)),
                ]
            }
        }
        Algo::Shatter => {
            let model = cx.fault_model(&cell.fault, &built);
            let (failed, alive) = cx.sample(model.as_ref(), g, &mut rng);
            let comps = cx.tr.time("graph.traverse", || {
                component_stats_with(g, &alive, &mut Scratch::new())
            });
            vec![
                m("faults", failed.len() as f64),
                m("components", comps.count as f64),
                m("biggest_component", comps.largest as f64),
            ]
        }
        Algo::Dissect => {
            let eps = params.epsilon.unwrap_or(0.25);
            let alive = built.net.full_mask();
            let ab = cx.cert(Objective::Node, g, &alive, &mut rng);
            let target = ((n as f64) * eps).ceil().max(1.0) as usize;
            let d = cx.tr.time("prune.dissect", || {
                dissect(g, &alive, target, CutStrategy::SpectralRefined, &mut rng)
            });
            vec![
                m("alpha_upper", ab.upper),
                m("removed", d.num_removed() as f64),
                m("largest_piece", d.largest_piece() as f64),
            ]
        }
        Algo::Diameter => {
            let model = cx.fault_model(&cell.fault, &built);
            let (failed, alive) = cx.sample(model.as_ref(), g, &mut rng);
            let full = built.net.full_mask();
            let ab = cx.cert(Objective::Node, g, &full, &mut rng);
            let eps = 1.0 - 1.0 / params.k;
            let out = cx.tr.time("prune.prune", || {
                prune(
                    g,
                    &alive,
                    ab.upper,
                    eps,
                    CutStrategy::SpectralRefined,
                    &mut rng,
                )
            });
            cx.counts.prune_iterations += out.iterations as u64;
            let mut v = vec![
                m("faults", failed.len() as f64),
                m("kept", out.kept.len() as f64),
            ];
            if out.kept.len() >= 4 {
                let after = cx.cert(Objective::Node, g, &out.kept, &mut rng);
                let diam = cx
                    .tr
                    .time("graph.traverse", || diameter_two_sweep(g, &out.kept));
                v.push(m("alpha_upper_after", after.upper));
                v.push(m("diameter", diam.unwrap_or(0) as f64));
            }
            v
        }
        Algo::CompactAudit => {
            let alive = built.net.full_mask();
            let (mut tried, mut compact_ok) = (0usize, 0usize);
            for _ in 0..params.samples {
                let seed = rng.gen_range(0..n as u32);
                let size = rng.gen_range(1..(n / 2).max(2));
                let s = cx
                    .tr
                    .time("graph.traverse", || bfs_ball(g, &alive, seed, size));
                if s.is_empty() || 2 * s.len() >= n {
                    continue;
                }
                tried += 1;
                let k = cx.tr.time("prune.compact", || compactify(g, &alive, &s));
                cx.tr.time("graph.traverse", || {
                    std::hint::black_box((
                        edge_cut_size(g, &alive, &s),
                        edge_cut_size(g, &alive, &k),
                    ))
                });
                if cx.tr.time("prune.compact", || is_compact(g, &alive, &k)) {
                    compact_ok += 1;
                }
                let verified = cx.tr.time("expansion.cut", || {
                    Cut::measure(g, &alive, k).verify(g, &alive)
                });
                if !verified {
                    return Err(format!(
                        "{}: compactified cut failed verification",
                        cell.key()
                    ));
                }
            }
            vec![
                m("samples", tried as f64),
                m(
                    "compact_ok_fraction",
                    compact_ok as f64 / tried.max(1) as f64,
                ),
            ]
        }
        other => return Err(format!("replay: algorithm {other} is not replayed")),
    };
    if let Some(trace) = &built.churn_trace {
        if params.churn_curves != ChurnCurves::Off {
            let cm = cx.tr.time("dyncon.solve", || {
                let interval = trace.clone().finalize();
                let curve = match params.churn_curves {
                    ChurnCurves::Oracle => resweep_curve(&interval, &mut Scratch::new()),
                    _ => solve_curve(&interval),
                };
                curve.survival_metrics()
            });
            out.push(m("gamma_half_life", cm.gamma_half_life));
            out.push(m("gamma_auc_t", cm.gamma_auc_t));
        }
    }
    cx.tr.exit(root);
    Ok(out)
}

/// `analyze_adversarial` (the `prune` cell), call by call.
fn replay_prune(
    cx: &mut Ctx,
    built: &BuiltScenario,
    cell: &Cell,
    params: &Params,
) -> Result<Metrics, String> {
    let net = &built.net;
    let g = &net.graph;
    let k = params.k;
    let mut rng = SmallRng::seed_from_u64(cell.seed);
    let full = net.full_mask();
    let alpha_before = cx.cert(Objective::Node, g, &full, &mut rng);
    let alpha = alpha_before.upper.min(1e6);
    let model = cx.fault_model(&cell.fault, built);
    let (failed, alive) = cx.sample(model.as_ref(), g, &mut rng);
    let gamma_after = cx.tr.time("graph.traverse", || gamma(g, &alive));
    let epsilon = 1.0 - 1.0 / k;
    let out = cx.tr.time("prune.prune", || {
        prune(g, &alive, alpha, epsilon, CutStrategy::Auto, &mut rng)
    });
    cx.counts.prune_iterations += out.iterations as u64;
    let alpha_after = cx.cert(Objective::Node, g, &out.kept, &mut rng);
    let guarantee = theorem21(net.n(), alpha, failed.len(), k);
    let n = net.n().max(1) as f64;
    let mut v = vec![
        m("n", net.n() as f64),
        m("faults", failed.len() as f64),
        m("gamma_after_faults", gamma_after),
        m("kept_fraction", out.kept.len() as f64 / n),
        m("culled", out.culled_nodes() as f64),
        m("alpha_after", BoundsSummary::from(&alpha_after).point()),
        m("certified", f64::from(out.certified)),
    ];
    if let Some(t) = guarantee {
        v.push(m("thm21_min_kept", t.min_kept));
        v.push(m("thm21_min_expansion", t.min_expansion));
    }
    Ok(v)
}

/// `analyze_random` (the `prune2` cell) at one thread, call by call.
fn replay_prune2(
    cx: &mut Ctx,
    built: &BuiltScenario,
    cell: &Cell,
    params: &Params,
) -> Result<Metrics, String> {
    let FaultSpec::Random { p } = cell.fault else {
        return Err(format!("{}: prune2 needs random faults", cell.key()));
    };
    let net = &built.net;
    let g = &net.graph;
    let n = net.n();
    let delta = net.max_degree();
    let epsilon = params
        .epsilon
        .unwrap_or_else(|| theorem34_max_epsilon(delta));
    let seed = cell.seed;
    let mut rng = SmallRng::seed_from_u64(seed);
    let full = net.full_mask();
    let ae_before = cx.cert(Objective::Edge, g, &full, &mut rng);
    let alpha_e = ae_before.upper.min(1e6);
    let trials = params.trials;
    let (mut failed, mut alive, mut scratch) =
        (NodeSet::empty(n), NodeSet::empty(n), Scratch::new());
    let mut rows = Vec::with_capacity(trials);
    for i in 0..trials {
        let mut trng = SmallRng::seed_from_u64(seed ^ (0xC0FFEE + i as u64));
        cx.counts.fault_samples += 1;
        cx.tr.time("faults.sample", || {
            RandomNodeFaults { p }.sample_into(g, &mut trng, &mut failed);
            failed.complement_into(&mut alive);
        });
        let g_frac = cx
            .tr
            .time("graph.traverse", || gamma_with(g, &alive, &mut scratch));
        let out = cx.tr.time("prune.prune2", || {
            prune2(g, &alive, alpha_e, epsilon, CutStrategy::Auto, &mut trng)
        });
        cx.counts.prune_iterations += out.iterations as u64;
        let after = cx.cert(Objective::Edge, g, &out.kept, &mut trng);
        rows.push([
            g_frac,
            out.kept.len() as f64 / n.max(1) as f64,
            if 2 * out.kept.len() >= n { 1.0 } else { 0.0 },
            if after.upper.is_finite() {
                after.upper
            } else {
                0.0
            },
        ]);
    }
    let mean = |j: usize| rows.iter().map(|r| r[j]).sum::<f64>() / trials.max(1) as f64;
    Ok(vec![
        m("n", n as f64),
        m("p", p),
        m("epsilon", epsilon),
        m("mean_gamma", mean(0)),
        m("kept_fraction", mean(1)),
        m("success", mean(2)),
        m("alpha_e_after", mean(3)),
        m("thm34_max_p", theorem34_max_p(delta, params.sigma)),
        m(
            "thm34_applicable",
            f64::from(theorem34_applicable(
                n,
                delta,
                params.sigma,
                alpha_e,
                p,
                epsilon,
            )),
        ),
    ])
}

/// Compares replayed metrics with the journaled record. `full` demands
/// the journaled metric vector be reproduced exactly (names, order,
/// bits); otherwise each replayed metric must equal the journaled
/// metric of the same name.
fn check(replayed: &Metrics, journaled: &CellResult, full: bool) -> Result<(), String> {
    let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
    if full {
        let ok = replayed.len() == journaled.metrics.len()
            && replayed
                .iter()
                .zip(&journaled.metrics)
                .all(|((ka, a), (kb, b))| ka == kb && same(*a, *b));
        if !ok {
            return Err(format!(
                "{}: replay {replayed:?} != journal {:?}",
                journaled.key, journaled.metrics
            ));
        }
        return Ok(());
    }
    for (name, v) in replayed {
        match journaled.metric(name) {
            Some(j) if same(*v, j) => {}
            other => {
                return Err(format!(
                    "{}: metric {name}: replay {v} != journal {other:?}",
                    journaled.key
                ))
            }
        }
    }
    Ok(())
}

/// `fxprobe replay --spec S --journal J [--spec S --journal J ...]
/// --spans OUT.jsonl --summary OUT.json`
pub fn run(
    specs: &[String],
    journals: &[String],
    spans_out: &str,
    summary_out: &str,
) -> Result<(), String> {
    use fx_json::Json;
    if specs.len() != journals.len() || specs.is_empty() {
        return Err("replay needs one --journal per --spec".to_string());
    }
    let mut cx = Ctx {
        tr: Tracer::new(),
        counts: Counts::default(),
        graph_id: 0,
        sample_lanczos: false,
    };
    let mut journal_ms = 0.0;
    let mut per_algo: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    let mut verified_full = 0u64;
    let mut verified_partial = 0u64;
    let mut mismatches: Vec<String> = Vec::new();
    let (mut load_ms, mut agg_ms) = (0.0, 0.0);
    let mut cell_index = 0u32;
    for (spec_path, journal_path) in specs.iter().zip(journals) {
        let spec = CampaignSpec::load(std::path::Path::new(spec_path))?;
        let t = Instant::now();
        let records = Journal::new(journal_path.into()).load()?;
        load_ms += t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        std::hint::black_box(aggregate(&records));
        agg_ms += t.elapsed().as_secs_f64() * 1e3;
        let by_key: HashMap<&str, &CellResult> =
            records.iter().map(|r| (r.key.as_str(), r)).collect();
        for cell in expand(&spec)? {
            let key = cell.key();
            let journaled = *by_key
                .get(key.as_str())
                .ok_or_else(|| format!("{spec_path}: cell {key} missing from {journal_path}"))?;
            cx.tr.cell = cell_index;
            cell_index += 1;
            let (t, side_before) = (Instant::now(), cx.tr.probe_ns);
            let replayed = replay_cell(&mut cx, &spec, &cell)?;
            let probe_ms =
                t.elapsed().as_secs_f64() * 1e3 - (cx.tr.probe_ns - side_before) as f64 / 1e6;
            journal_ms += journaled.wall_ms;
            let e = per_algo.entry(cell.algo.to_string()).or_default();
            e.0 += probe_ms;
            e.1 += journaled.wall_ms;
            let full = matches!(cell.algo, Algo::Prune | Algo::Prune2);
            match check(&replayed, journaled, full) {
                Ok(()) if full => verified_full += 1,
                Ok(()) => verified_partial += 1,
                Err(e) => mismatches.push(e),
            }
        }
    }
    let c = &cx.counts;
    let mut file = std::io::BufWriter::new(
        std::fs::File::create(spans_out).map_err(|e| format!("{spans_out}: {e}"))?,
    );
    cx.tr
        .write_jsonl(&mut file)
        .map_err(|e| format!("{spans_out}: {e}"))?;
    let spans = cx
        .tr
        .totals()
        .into_iter()
        .map(|(name, t)| {
            (
                name.to_string(),
                Json::Obj(vec![
                    ("calls".to_string(), Json::UInt(t.calls)),
                    ("total_ms".to_string(), Json::Num(t.total_ns as f64 / 1e6)),
                    ("self_ms".to_string(), Json::Num(t.self_ns as f64 / 1e6)),
                ]),
            )
        })
        .collect();
    let algos = per_algo
        .into_iter()
        .map(|(algo, (probe, journal))| {
            (
                algo,
                Json::Obj(vec![
                    ("probe_ms".to_string(), Json::Num(probe)),
                    ("journal_ms".to_string(), Json::Num(journal)),
                ]),
            )
        })
        .collect();
    let u = Json::UInt;
    let summary = Json::Obj(vec![
        ("cells".to_string(), u(cell_index as u64)),
        ("verified_full".to_string(), u(verified_full)),
        ("verified_partial".to_string(), u(verified_partial)),
        (
            "mismatches".to_string(),
            Json::Arr(mismatches.into_iter().map(Json::Str).collect()),
        ),
        (
            "probe_side_ms".to_string(),
            Json::Num(cx.tr.probe_ns as f64 / 1e6),
        ),
        ("journal_wall_ms".to_string(), Json::Num(journal_ms)),
        ("journal_load_ms".to_string(), Json::Num(load_ms)),
        ("aggregate_ms".to_string(), Json::Num(agg_ms)),
        (
            "counts".to_string(),
            Json::Obj(vec![
                ("builds".to_string(), u(c.builds)),
                ("fault_samples".to_string(), u(c.fault_samples)),
                ("percolation_trials".to_string(), u(c.percolation_trials)),
                ("prune_iterations".to_string(), u(c.prune_iterations)),
                ("cert_calls".to_string(), u(c.cert_calls)),
                ("cert_repeats".to_string(), u(c.cert_repeats)),
                ("lanczos_solves".to_string(), u(c.lanczos_solves)),
                ("lanczos_iters".to_string(), u(c.lanczos_iters)),
            ]),
        ),
        ("spans".to_string(), Json::Obj(spans)),
        ("algos".to_string(), Json::Obj(algos)),
    ]);
    std::fs::write(summary_out, fx_json::to_string(&summary))
        .map_err(|e| format!("{summary_out}: {e}"))
}
