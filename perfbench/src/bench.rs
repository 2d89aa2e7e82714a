//! The three workloads and the metrics they report.

use crate::chat;
use crate::inproc::{self, Request, Run};
use crate::replay::{self, ReplayOutcome, ReplayRequest, Replayer, Served};
use crate::report::Report;
use crate::schedule::Schedule;
use crate::stats::{percentile, SloLimits};
use crate::trace::{self, Recorder, Span};
use cocktail_core::{CocktailConfig, SamplingParams};
use cocktail_model::ModelProfile;
use cocktail_quant::Bitwidth;
use cocktail_server::GatewayClient;
use cocktail_workloads::{TaskGenerator, TrafficConfig, TrafficGenerator, WorkloadConfig};
use std::time::{Duration, Instant};

/// Workload names, in run order.
pub const WORKLOADS: [&str; 3] = ["longdoc_qa", "serving_mix", "chat_gateway"];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// `longdoc_qa`: context lengths (words) the documents cycle through.
pub const LONGDOC_WORDS: [usize; 3] = [900, 1800, 3100];
/// `longdoc_qa`: tokens generated per request.
pub const LONGDOC_NEW_TOKENS: usize = 128;
/// `longdoc_qa`: requests replayed for the logit KL in untraced runs.
const LONGDOC_KL_REQUESTS: usize = 3;
/// `longdoc_qa` SLO. Like every gated workload's limits, these are 1.25 ×
/// the p90 TTFT and p90 per-request mean TPOT measured on a 2-core Xeon
/// (`ttft_p90_ms`, `request_mean_tpot_p90_ms`), so the slowest decile
/// misses once it regresses by more than a timing metric's bound.
pub const LONGDOC_SLO: SloLimits = SloLimits {
    ttft_ms: 1750.0,
    tpot_ms: 3.9,
};

/// `serving_mix`: offered load, requests per second (about 60 % of the
/// measured capacity of a 2-core host).
pub const MIX_RATE: f64 = 2.5;
/// `serving_mix`: tokens generated per request.
pub const MIX_NEW_TOKENS: usize = 64;
/// `serving_mix`: requests replayed for the logit KL in untraced runs.
const MIX_KL_REQUESTS: usize = 4;
/// `serving_mix` SLO.
pub const MIX_SLO: SloLimits = SloLimits {
    ttft_ms: 500.0,
    tpot_ms: 15.0,
};

/// `chat_gateway`: concurrent clients.
pub const CHAT_CLIENTS: usize = 2;
/// `chat_gateway` SLO, calibrated like [`LONGDOC_SLO`].
pub const CHAT_SLO: SloLimits = SloLimits {
    ttft_ms: 245.0,
    tpot_ms: 2.7,
};

/// Settings of one invocation.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub window: Duration,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
}

fn config() -> CocktailConfig {
    CocktailConfig::default()
}

/// Runs workload `name`.
pub fn run(name: &str, args: Args, report: &mut Report) -> Result<(), String> {
    crate::host::fingerprint(report);
    report.fingerprint("workload", name);
    report.fingerprint("seed", args.seed);
    report.fingerprint("window_s", args.window.as_secs_f64());
    match name {
        "longdoc_qa" => longdoc(args, report),
        "serving_mix" => serving_mix(args, report),
        "chat_gateway" => chat_gateway(args, report),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Derives the seed of request `index` from the run seed.
fn request_seed(seed: u64, index: u64) -> u64 {
    SamplingParams::for_request(seed, index).seed
}

fn longdoc_request(seed: u64, index: u64) -> Request {
    let words = LONGDOC_WORDS[index as usize % LONGDOC_WORDS.len()];
    let task = TaskGenerator::qasper(WorkloadConfig::paper_scale().with_context_words(words))
        .generate(request_seed(seed, index));
    Request {
        index,
        context: task.context,
        query: task.query,
        max_new_tokens: LONGDOC_NEW_TOKENS,
        sampling: None,
    }
}

fn mix_requests(seed: u64, n: usize) -> Vec<Request> {
    let mut traffic = TrafficConfig::small(n).with_max_new_tokens(MIX_NEW_TOKENS);
    traffic.workload = WorkloadConfig::small();
    let mut trace = TrafficGenerator::new(traffic, seed).generate();
    trace.sort_by_key(|r| r.index);
    trace
        .into_iter()
        .map(|r| Request {
            index: r.index as u64,
            context: r.task.context,
            query: r.task.query,
            max_new_tokens: r.max_new_tokens,
            sampling: (r.index % 2 == 1).then(|| {
                SamplingParams::for_request(seed, r.index as u64)
                    .with_temperature(0.8)
                    .with_top_p(0.95)
            }),
        })
        .collect()
}

/// The replay requests of an in-process run.
fn replay_requests(run: &Run, limit: usize) -> Vec<ReplayRequest> {
    run.served
        .iter()
        .take(limit)
        .map(|s| ReplayRequest {
            id: s.request.index,
            context: s.request.context.clone(),
            query: s.request.query.clone(),
            max_new_tokens: s.request.max_new_tokens,
            sampling: s.request.sampling.clone(),
            served: Served::Tokens(s.tokens.clone()),
        })
        .collect()
}

fn replay_all(
    profile: &ModelProfile,
    rec: &mut Recorder,
    requests: &[ReplayRequest],
    report: &mut Report,
) -> Result<Vec<ReplayOutcome>, String> {
    let warm = inproc::warmup_request();
    let replayer = Replayer::new(profile.clone(), config(), &[&warm.context, &warm.query])?;
    let mut outs = Vec::with_capacity(requests.len());
    for req in requests {
        let out = replayer.replay(rec, req)?;
        report.check(out.matches, || {
            format!(
                "layer replay of request {} differs from the served tokens",
                req.id
            )
        });
        outs.push(out);
    }
    Ok(outs)
}

fn kl_metric(report: &mut Report, outs: &[ReplayOutcome], exported: bool) {
    let sum: f64 = outs.iter().map(|o| o.kl_sum).sum();
    let steps: usize = outs.iter().map(|o| o.kl_steps).sum();
    let kl = sum / steps.max(1) as f64;
    if exported {
        report.push("logit_kl_vs_fp16", kl, "nats", Some(steps));
    } else {
        report.push_local("logit_kl_vs_fp16", kl, "nats", Some(steps));
    }
}

/// Serves a workload's requests on an engine for the timed window.
type ServeFn<'a> =
    dyn Fn(&mut cocktail_core::ServingEngine, &mut Recorder) -> Result<Run, String> + 'a;

/// An in-process workload: closed-loop `longdoc_qa` or open-loop
/// `serving_mix`.
fn in_process(
    args: Args,
    report: &mut Report,
    profile: ModelProfile,
    slo: SloLimits,
    kl_requests: usize,
    serve: &ServeFn<'_>,
) -> Result<(), String> {
    let config = config();
    report.fingerprint("profile", profile.name());
    report.fingerprint("slo_ttft_ms", slo.ttft_ms);
    report.fingerprint("slo_tpot_ms", slo.tpot_ms);
    if !args.trace {
        let (mut engine, setup_s) = inproc::timed_setup(&profile, &config, SETUP_REPS)?;
        report.fingerprint("pool_workers", engine.engine().pool_workers());
        let mut rec = Recorder::new(false, Instant::now());
        let run = serve(&mut engine, &mut rec)?;
        let rss = rss_peak_mib();
        report.attempted = run.served.len();
        inproc::check_idle(&engine, report);
        drop(engine);
        inproc::check_references(&profile, &config, &run.served, report)?;
        let outs = replay_all(
            &profile,
            &mut rec,
            &replay_requests(&run, kl_requests),
            report,
        )?;
        report.push("setup_s", setup_s, "s", Some(SETUP_REPS));
        inproc::e2e_metrics(report, &run.served, run.end - run.start, &slo);
        inproc::kv_compression_metric(report, &run);
        kl_metric(report, &outs, true);
        report.push("rss_peak_mib", rss, "MiB", None);
        return Ok(());
    }

    // Traced: the window served on a fresh engine with spans around every
    // engine call, then every served request replayed layer by layer. The
    // replay, an independent drive of each request through the layer
    // calls, is this run's output check; the solo references run in
    // untraced runs.
    let (mut engine, _) = inproc::timed_setup(&profile, &config, 1)?;
    report.fingerprint("pool_workers", engine.engine().pool_workers());
    let trie_before = engine.prefix_cache_stats().unwrap_or_default();
    let spawns_before = engine.engine().pool_spawn_count();
    let epoch = Instant::now();
    let mut rec = Recorder::new(true, epoch);
    let traced = serve(&mut engine, &mut rec)?;
    let serve_wall = epoch.elapsed();
    let trie = engine.prefix_cache_stats().unwrap_or_default();
    inproc::check_idle(&engine, report);
    report.attempted = traced.served.len();
    let requests = replay_requests(&traced, usize::MAX);
    let replay_start = Instant::now();
    let outs = replay_all(&profile, &mut rec, &requests, report)?;
    let replay_wall = replay_start.elapsed();

    let mean_ctx = outs.iter().map(|o| o.context_tokens).sum::<usize>() / outs.len().max(1);
    layer_metrics(report, rec.spans(), &outs, &profile, mean_ctx)?;
    inproc::serving_layer_metrics(report, &traced);
    let lookups = (trie.hits + trie.misses).saturating_sub(trie_before.hits + trie_before.misses);
    report.push_local(
        "trie.hit_ratio",
        (trie.hits - trie_before.hits) as f64 / lookups.max(1) as f64,
        "ratio",
        Some(lookups as usize),
    );
    report.push_local(
        "trie.evictions_per_req",
        (trie.evictions - trie_before.evictions) as f64 / traced.served.len().max(1) as f64,
        "count",
        Some(traced.served.len()),
    );
    report.push(
        "trie.resident_mib",
        trie.resident_bytes as f64 / (1 << 20) as f64,
        "MiB",
        None,
    );
    report.push_local(
        "pool.spawns",
        (engine.engine().pool_spawn_count() - spawns_before) as f64,
        "count",
        None,
    );
    trace_health(report, rec.spans(), serve_wall + replay_wall);
    write_trace(rec.spans(), report)?;
    Ok(())
}

fn longdoc(args: Args, report: &mut Report) -> Result<(), String> {
    let seed = args.seed;
    report.fingerprint("context_words", format!("{LONGDOC_WORDS:?}"));
    in_process(
        args,
        report,
        ModelProfile::llama2_7b_sim(),
        LONGDOC_SLO,
        LONGDOC_KL_REQUESTS,
        &|engine, rec| {
            inproc::closed_loop(engine, rec, args.window, LONGDOC_WORDS.len(), |i| {
                longdoc_request(seed, i)
            })
        },
    )
}

fn serving_mix(args: Args, report: &mut Report) -> Result<(), String> {
    let schedule = Schedule::poisson(MIX_RATE, args.window, args.seed);
    let requests = mix_requests(args.seed, schedule.len());
    report.fingerprint("rate_per_s", MIX_RATE);
    in_process(
        args,
        report,
        ModelProfile::llama2_7b_sim(),
        MIX_SLO,
        MIX_KL_REQUESTS,
        &|engine, rec| inproc::open_loop(engine, rec, &schedule, requests.clone()),
    )
}

fn chat_gateway(args: Args, report: &mut Report) -> Result<(), String> {
    let profile = ModelProfile::mistral_7b_sim();
    let config = config();
    report.fingerprint("profile", profile.name());
    report.fingerprint("replicas", chat::REPLICAS);
    report.fingerprint("clients", CHAT_CLIENTS);
    report.fingerprint("slo_ttft_ms", CHAT_SLO.ttft_ms);
    report.fingerprint("slo_tpot_ms", CHAT_SLO.tpot_ms);
    let convs = chat::conversations(args.seed);

    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_times = Vec::with_capacity(reps);
    let mut gateway = None;
    for _ in 0..reps {
        if let Some(g) = gateway.take() {
            let chat::Gateway { server, .. } = g;
            server.shutdown();
        }
        let t0 = Instant::now();
        gateway = Some(chat::setup(&profile, &config)?);
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let gateway = gateway.expect("at least one set-up");
    let client = GatewayClient::new(gateway.server.addr());

    let rtt_us: Vec<f64> = (0..if args.trace { 50 } else { 0 })
        .map(|_| {
            let t0 = Instant::now();
            client.version().map(|_| t0.elapsed().as_secs_f64() * 1e6)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let before = client.stats().map_err(|e| e.to_string())?;
    let epoch = Instant::now();
    let (turns, rec, start, end) = chat::closed_loop(
        gateway.server.addr(),
        &convs,
        CHAT_CLIENTS,
        args.window,
        epoch,
        args.trace,
    );
    let after = chat::wait_idle(&client).map_err(|e| e.to_string())?;
    let rss = rss_peak_mib();
    chat::check_idle(&after, report);
    report.attempted = turns.len();
    report.check(
        turns.len() < convs.iter().map(Vec::len).sum::<usize>(),
        || "every generated conversation was served before the window ended".into(),
    );
    for t in &turns {
        if let Some(f) = &t.failure {
            report.fail(format!(
                "conversation {} turn {}: {f}",
                t.conversation, t.turn
            ));
        }
    }
    let warmups = gateway.warmup_of.clone();
    gateway.server.shutdown();
    let mut rrec = Recorder::new(args.trace, epoch);
    let replay_start = Instant::now();
    let outs = chat::verify(
        &profile, &config, &warmups, &turns, &convs, &mut rrec, report,
    )?;
    let replay_wall = replay_start.elapsed();

    let ctx_tokens: usize = turns
        .iter()
        .filter(|t| t.failure.is_none())
        .map(|t| {
            cocktail_model::Tokenizer::split_words(&convs[t.conversation][t.turn].task.context)
                .len()
        })
        .sum();
    let reused = after
        .prefix_reused_tokens
        .saturating_sub(before.prefix_reused_tokens);

    if !args.trace {
        report.push(
            "setup_s",
            percentile(&setup_times, 50.0).unwrap_or(0.0),
            "s",
            Some(reps),
        );
        inproc::e2e_metrics(report, &turns, end - start, &CHAT_SLO);
        let fp16: usize = outs.iter().map(|o| o.fp16_cache_bytes).sum();
        let compressed: usize = outs.iter().map(|o| o.cache_bytes).sum();
        report.push(
            "kv_compression_ratio",
            fp16 as f64 / compressed.max(1) as f64,
            "ratio",
            Some(outs.len()),
        );
        kl_metric(report, &outs, true);
        report.push("rss_peak_mib", rss, "MiB", None);
        report.notes.push(format!(
            "kv_compression_ratio and logit_kl_vs_fp16 come from the {} replayed turns",
            outs.len()
        ));
        return Ok(());
    }

    let mut spans_rec = rec;
    spans_rec.absorb(rrec);
    let spans = spans_rec.spans();
    let mean_ctx = outs.iter().map(|o| o.context_tokens).sum::<usize>() / outs.len().max(1);
    layer_metrics(report, spans, &outs, &profile, mean_ctx)?;
    report.push_local(
        "trie.reused_share",
        reused as f64 / ctx_tokens.max(1) as f64,
        "ratio",
        Some(turns.len()),
    );
    report.push(
        "trie.resident_mib",
        after.prefix_resident_bytes as f64 / (1 << 20) as f64,
        "MiB",
        None,
    );
    let affinity = after.affinity_routed - before.affinity_routed;
    let least = after.least_loaded_routed - before.least_loaded_routed;
    report.push_local(
        "router.affinity_share",
        affinity as f64 / (affinity + least).max(1) as f64,
        "ratio",
        Some(affinity + least),
    );
    let done: Vec<f64> = after
        .replicas
        .iter()
        .zip(&before.replicas)
        .map(|(a, b)| (a.completed - b.completed) as f64)
        .collect();
    let mean_done = done.iter().sum::<f64>() / done.len().max(1) as f64;
    report.push_local(
        "router.replica_skew",
        done.iter().copied().fold(0.0, f64::max) / mean_done.max(1e-9),
        "max/mean",
        Some(done.len()),
    );
    report.push_local(
        "http.version_rtt_us",
        percentile(&rtt_us, 50.0).unwrap_or(0.0),
        "us",
        Some(rtt_us.len()),
    );
    report.push_local(
        "http.rejected",
        turns.iter().filter(|t| t.rejected).count() as f64,
        "count",
        None,
    );
    trace_health(report, spans, (end - start) + replay_wall);
    write_trace(spans, report)?;
    Ok(())
}

/// Trace health over the traced wall time. `trace.overhead` is the
/// measured cost of recording one span times the spans recorded, over the
/// traced wall: a lower bound on what tracing costs, since it leaves out
/// the cache and allocator effects of recording. It has this one
/// definition on every workload.
fn trace_health(report: &mut Report, spans: &[Span], wall: Duration) {
    let wall_ns = wall.as_nanos().max(1) as f64;
    let covered = trace::top_level_coverage_ns(spans) as f64;
    report.push(
        "trace.coverage",
        covered / wall_ns,
        "ratio",
        Some(spans.len()),
    );
    report.push(
        "trace.overhead",
        spans.len() as f64 * trace::span_cost_ns() / wall_ns,
        "ratio",
        Some(spans.len()),
    );
}

fn write_trace(spans: &[Span], report: &mut Report) -> Result<(), String> {
    let Some(dir) = crate::out_dir() else {
        return Ok(());
    };
    let name = report
        .fingerprint
        .iter()
        .filter(|(k, _)| k == "workload" || k == "seed")
        .map(|(_, v)| v.as_str())
        .collect::<Vec<_>>()
        .join("-seed");
    let path = dir.join(format!("trace-{name}.json"));
    std::fs::write(&path, trace::to_json(spans).to_string_compact()).map_err(|e| e.to_string())?;
    report
        .notes
        .push(format!("trace written to {}", path.display()));
    Ok(())
}

/// Per-layer metrics of the layer replay, common to every workload.
fn layer_metrics(
    report: &mut Report,
    spans: &[Span],
    outs: &[ReplayOutcome],
    profile: &ModelProfile,
    context_len: usize,
) -> Result<(), String> {
    let totals = trace::totals(spans);
    let mean_ns = |name: &str| {
        totals.get(name).map_or((0.0, 0), |&(n, total, _)| {
            (total as f64 / n.max(1) as f64, n as usize)
        })
    };
    let (score, n) = mean_ns("retrieval.score");
    report.push("retrieval.score_ms", score / 1e6, "ms", Some(n));
    let (plan, n) = mean_ns("search.plan");
    report.push("search.plan_us", plan / 1e3, "us", Some(n));
    let chunks = outs.iter().fold((0, 0, 0), |a, o| {
        (a.0 + o.chunks.0, a.1 + o.chunks.1, a.2 + o.chunks.2)
    });
    let all = (chunks.0 + chunks.1 + chunks.2).max(1) as f64;
    report.push(
        "search.int2_share",
        chunks.0 as f64 / all,
        "ratio",
        Some(all as usize),
    );
    report.push(
        "search.int4_share",
        chunks.1 as f64 / all,
        "ratio",
        Some(all as usize),
    );
    report.push(
        "search.fp16_share",
        chunks.2 as f64 / all,
        "ratio",
        Some(all as usize),
    );
    let (reorder, n) = mean_ns("reorder_quant");
    report.push("reorder_quant.ms", reorder / 1e6, "ms", Some(n));
    let (build, n) = mean_ns("cache_build");
    report.push_local("cache_build.ms", build / 1e6, "ms", Some(n));
    let ctx: usize = outs.iter().map(|o| o.context_tokens).sum();
    let bytes: usize = outs.iter().map(|o| o.cache_bytes).sum();
    report.push(
        "kv.bytes_per_ctx_tok",
        bytes as f64 / ctx.max(1) as f64,
        "B/tok",
        Some(outs.len()),
    );

    let model = profile.sim();
    let config = config();
    for (name, bw) in [
        ("attend.int2_ns_per_tok", Bitwidth::Int2),
        ("attend.int4_ns_per_tok", Bitwidth::Int4),
        ("attend.fp16_ns_per_tok", Bitwidth::Fp16),
    ] {
        let ns = replay::attend_ns_per_token(
            model.head_dim(),
            context_len.max(config.chunk_size),
            &config,
            bw,
        )?;
        report.push(name, ns, "ns/tok", Some(context_len));
    }
    let attend: u64 = outs.iter().map(|o| o.attend_sum_ns).sum();
    let late: u64 = outs.iter().map(|o| o.late_decode_ns).sum();
    report.push(
        "attend.share_of_decode",
        attend as f64 / late.max(1) as f64,
        "ratio",
        Some(outs.len()),
    );
    let (cocktail, n) = mean_ns("decode_step");
    let (fp16, _) = mean_ns("decode_step.fp16");
    report.push("decode.step_ms.cocktail", cocktail / 1e6, "ms", Some(n));
    report.push("decode.step_ms.fp16", fp16 / 1e6, "ms", Some(n));
    let measured = cocktail / fp16.max(1.0);
    let predicted = replay::hwsim_tpot_ratio(profile);
    report.push("decode.cocktail_over_fp16", measured, "ratio", Some(n));
    report.push("hwsim.tpot_ratio", predicted, "ratio", None);
    report.push(
        "hwsim.measured_over_predicted",
        measured / predicted,
        "ratio",
        None,
    );
    report.notes.push(format!(
        "decode Cocktail/FP16: measured {measured:.3} vs hwsim Fig. 5 {predicted:.3} ({} full-size, A800, batch 16): measured/predicted {:.3}",
        profile.full().name,
        measured / predicted
    ));
    let (tokenize, n) = mean_ns("tokenize");
    report.push("tokenize.us", tokenize / 1e3, "us", Some(n));
    let prompt: usize = outs.iter().map(|o| o.prompt_tokens).sum();
    let prefill_total = totals.get("prefill_batch").map_or(0, |t| t.1) as f64;
    report.push(
        "prefill.ms_per_ktok",
        (prefill_total / 1e6) / (prompt.max(1) as f64 / 1e3),
        "ms/ktok",
        Some(prompt),
    );
    let (sampler, n) = mean_ns("sampler");
    report.push("sampler.us_per_tok", sampler / 1e3, "us/tok", Some(n));
    kl_metric(report, outs, false);
    Ok(())
}
