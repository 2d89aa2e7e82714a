//! In-process serving: one `ServingEngine` driven by the benchmark thread,
//! in a closed loop (`longdoc_qa`) or an open loop (`serving_mix`).

use crate::report::Report;
use crate::schedule::{latency_from_due, Schedule};
use crate::stats::{percentile, RequestResult, SloLimits};
use crate::trace::Recorder;
use cocktail_core::{
    CocktailConfig, CocktailPipeline, FinishReason, PrefixCacheConfig, SamplingParams,
    ServeRequest, ServingEngine, ServingStats,
};
use cocktail_model::ModelProfile;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One request as the benchmark generated it.
#[derive(Debug, Clone)]
pub struct Request {
    /// Position in submission order.
    pub index: u64,
    /// Document.
    pub context: String,
    /// Question.
    pub query: String,
    /// Generation budget.
    pub max_new_tokens: usize,
    /// Sampler settings (`None` is greedy).
    pub sampling: Option<SamplingParams>,
}

impl Request {
    fn to_serve(&self) -> ServeRequest {
        let mut b = ServeRequest::builder()
            .context(self.context.clone())
            .query(self.query.clone())
            .max_new_tokens(self.max_new_tokens);
        if let Some(p) = self.sampling.clone() {
            b = b.sampling(p);
        }
        b.build()
    }
}

/// What serving one request produced.
#[derive(Debug, Clone)]
pub struct Served {
    /// The request.
    pub request: Request,
    /// When the request was due (open loop) or submitted (closed loop).
    pub due: Instant,
    /// When `submit` was called.
    pub submitted: Instant,
    /// Committed tokens, in order.
    pub tokens: Vec<u32>,
    /// Wall time of each committed token's event.
    pub token_times: Vec<Instant>,
    /// Engine statistics (present once the request finished).
    pub stats: Option<ServingStats>,
    /// Failure message, if it failed.
    pub failure: Option<String>,
}

/// A served request as the end-to-end metrics see it: in process or
/// over the wire.
pub trait Timed {
    /// Time to first token, ms, from the due (or submit) time.
    fn ttft_ms(&self) -> Option<f64>;

    /// Wall time of each committed token's event.
    fn token_times(&self) -> &[Instant];

    /// Whether the request failed, was refused or served a wrong output.
    fn failed(&self) -> bool;

    /// Gaps between consecutive token events, ms.
    fn tpot_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.token_times()
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
    }

    /// The request's result as the SLO counts it.
    fn result(&self) -> RequestResult {
        match (self.failed(), self.ttft_ms()) {
            (false, Some(ttft_ms)) => {
                let gaps: Vec<f64> = self.tpot_ms().collect();
                let mean_tpot_ms = if gaps.is_empty() {
                    0.0
                } else {
                    gaps.iter().sum::<f64>() / gaps.len() as f64
                };
                RequestResult::Served {
                    ttft_ms,
                    mean_tpot_ms,
                }
            }
            _ => RequestResult::Failed,
        }
    }
}

impl Timed for Served {
    fn ttft_ms(&self) -> Option<f64> {
        self.token_times
            .first()
            .map(|&t| t.saturating_duration_since(self.due).as_secs_f64() * 1e3)
    }

    fn token_times(&self) -> &[Instant] {
        &self.token_times
    }

    fn failed(&self) -> bool {
        self.failure.is_some()
    }
}

/// One engine step as the serve loop saw it.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Wall time when `step_events` was called.
    pub start: Instant,
    /// Its duration.
    pub dur: Duration,
    /// Token events it emitted.
    pub tokens: usize,
    /// Engine clock after the step (the step's number).
    pub clock: usize,
}

/// A whole serve run.
#[derive(Debug)]
pub struct Run {
    /// Requests in submission order.
    pub served: Vec<Served>,
    /// Every engine step of the run, in order.
    pub steps: Vec<Step>,
    /// Start of the timed window.
    pub start: Instant,
    /// Time of the last token event.
    pub end: Instant,
    /// Open-loop submission lateness (submit − due), ms.
    pub late_ms: Vec<f64>,
}

/// The warm-up request every in-process engine serves before timing.
pub fn warmup_request() -> Request {
    let task =
        cocktail_workloads::TaskGenerator::qasper(cocktail_workloads::WorkloadConfig::tiny())
            .generate(u64::MAX);
    Request {
        index: u64::MAX,
        context: task.context,
        query: task.query,
        max_new_tokens: 4,
        sampling: None,
    }
}

/// Builds the serving engine (prefix cache on) and serves the warm-up
/// request: the set-up that precedes the first timed request.
pub fn setup_engine(
    profile: &ModelProfile,
    config: &CocktailConfig,
) -> Result<ServingEngine, String> {
    let mut engine = ServingEngine::new(profile.clone(), config.clone())
        .map_err(|e| e.to_string())?
        .with_prefix_cache(PrefixCacheConfig::default());
    engine.submit(warmup_request().to_serve());
    engine.run_until_idle().map_err(|e| e.to_string())?;
    Ok(engine)
}

/// Set-up repeated `reps` times; returns the last engine and the median
/// set-up time in seconds.
pub fn timed_setup(
    profile: &ModelProfile,
    config: &CocktailConfig,
    reps: usize,
) -> Result<(ServingEngine, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut engine = None;
    for _ in 0..reps {
        drop(engine.take());
        let t0 = Instant::now();
        engine = Some(setup_engine(profile, config)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let median = percentile(&times, 50.0).expect("at least one set-up");
    Ok((engine.expect("at least one set-up"), median))
}

struct Loop<'a> {
    engine: &'a mut ServingEngine,
    rec: &'a mut Recorder,
    served: Vec<Served>,
    by_id: BTreeMap<u64, usize>,
    steps: Vec<Step>,
    end: Instant,
}

impl Loop<'_> {
    fn submit(&mut self, request: Request, due: Instant) {
        let submitted = Instant::now();
        let index = request.index;
        let serve = request.to_serve();
        let id = self
            .rec
            .span("serving.submit", Some(index), || self.engine.submit(serve));
        self.by_id.insert(id.raw(), self.served.len());
        self.served.push(Served {
            request,
            due,
            submitted,
            tokens: Vec::new(),
            token_times: Vec::new(),
            stats: None,
            failure: None,
        });
    }

    /// One engine step; returns how many requests finished.
    fn step(&mut self) -> Result<usize, String> {
        let start = Instant::now();
        let events = self
            .rec
            .span("serving.step_events", None, || self.engine.step_events())
            .map_err(|e| e.to_string())?;
        let now = Instant::now();
        let mut tokens = 0;
        let mut finished = 0;
        for event in events {
            let slot = *self
                .by_id
                .get(&event.id.raw())
                .ok_or("event for an unknown request")?;
            if let Some(token) = event.token {
                tokens += 1;
                self.served[slot].tokens.push(token);
                self.served[slot].token_times.push(now);
                self.end = now;
            }
            if let Some(reason) = event.finish {
                finished += 1;
                let s = &mut self.served[slot];
                if reason == FinishReason::Failed {
                    let failure = self.engine.take_failure(event.id);
                    s.failure = Some(failure.as_ref().map_or("failed".into(), |f| f.0.clone()));
                    s.stats = failure.map(|f| f.1);
                } else if let Some(outcome) = self.engine.take_outcome(event.id) {
                    s.stats = Some(outcome.stats);
                } else {
                    s.failure = Some(format!("finished ({reason:?}) without an outcome"));
                }
            }
        }
        self.steps.push(Step {
            start,
            dur: now - start,
            tokens,
            clock: self.engine.clock(),
        });
        Ok(finished)
    }
}

/// Closed loop, one client: submit, step until it finishes, repeat. New
/// requests start until `window` has passed, and always in whole cycles
/// of `cycle` requests so every run serves the same mix.
pub fn closed_loop(
    engine: &mut ServingEngine,
    rec: &mut Recorder,
    window: Duration,
    cycle: usize,
    mut make: impl FnMut(u64) -> Request,
) -> Result<Run, String> {
    let start = Instant::now();
    let mut lp = Loop {
        engine,
        rec,
        served: Vec::new(),
        by_id: BTreeMap::new(),
        steps: Vec::new(),
        end: start,
    };
    let mut index = 0u64;
    let more = |index: u64| !index.is_multiple_of(cycle as u64) || start.elapsed() < window;
    while more(index) {
        let request = make(index);
        lp.submit(request, Instant::now());
        while lp.step()? == 0 {}
        index += 1;
    }
    Ok(Run {
        served: lp.served,
        steps: lp.steps,
        start,
        end: lp.end,
        late_ms: Vec::new(),
    })
}

/// Open loop: requests are submitted at their due times whatever the
/// engine is doing; the benchmark thread steps the engine between
/// submissions and sleeps only while the engine is idle.
pub fn open_loop(
    engine: &mut ServingEngine,
    rec: &mut Recorder,
    schedule: &Schedule,
    requests: Vec<Request>,
) -> Result<Run, String> {
    let start = Instant::now();
    let mut lp = Loop {
        engine,
        rec,
        served: Vec::new(),
        by_id: BTreeMap::new(),
        steps: Vec::new(),
        end: start,
    };
    let mut late_ms = Vec::with_capacity(requests.len());
    let mut pending = requests
        .into_iter()
        .zip(schedule.due().iter().copied())
        .peekable();
    loop {
        let now = Instant::now();
        while let Some((_, due)) = pending.peek() {
            if now < start + *due {
                break;
            }
            let (request, due) = pending.next().expect("peeked");
            late_ms.push(latency_from_due(start, due, Instant::now()).as_secs_f64() * 1e3);
            lp.submit(request, start + due);
        }
        if lp.engine.is_idle() {
            match pending.peek() {
                Some((_, due)) => {
                    let wake = start + *due;
                    let open = lp.rec.begin("loadgen.wait", None);
                    std::thread::sleep(wake.saturating_duration_since(Instant::now()));
                    lp.rec.end(open);
                    continue;
                }
                None => break,
            }
        }
        lp.step()?;
    }
    Ok(Run {
        served: lp.served,
        steps: lp.steps,
        start,
        end: lp.end,
        late_ms,
    })
}

/// Idle leak check: with nothing in flight, every KV byte still charged
/// must belong to the prefix trie, and no trie entry may be pinned.
pub fn check_idle(engine: &ServingEngine, report: &mut Report) {
    report.check(engine.is_idle(), || "engine not idle after the run".into());
    let stats = engine.prefix_cache_stats().unwrap_or_default();
    let in_use = engine.kv_bytes_in_use();
    report.check(in_use == stats.resident_bytes, || {
        format!(
            "idle leak: kv_bytes_in_use {in_use} != trie resident bytes {}",
            stats.resident_bytes
        )
    });
    report.check(stats.pinned_entries == 0, || {
        format!(
            "idle leak: {} trie entries still pinned",
            stats.pinned_entries
        )
    });
}

/// Output correctness: greedy requests must match a solo
/// `CocktailPipeline::run` token for token, sampled ones must replay
/// identically on a fresh engine with the same seed. Both references see
/// the served engine's tokenizer history (warm-up, then every request in
/// submission order), since token ids follow first-encounter order.
pub fn check_references(
    profile: &ModelProfile,
    config: &CocktailConfig,
    served: &[Served],
    report: &mut Report,
) -> Result<(), String> {
    let pipeline =
        CocktailPipeline::new(profile.clone(), config.clone()).map_err(|e| e.to_string())?;
    let warm = warmup_request();
    pipeline
        .run(&warm.context, &warm.query, warm.max_new_tokens)
        .map_err(|e| e.to_string())?;
    let mut sampled_ref: Option<ServingEngine> = None;
    let sampled_count = served
        .iter()
        .filter(|s| s.request.sampling.is_some())
        .count();
    if sampled_count > 0 {
        let mut e =
            ServingEngine::new(profile.clone(), config.clone()).map_err(|e| e.to_string())?;
        e.submit(warm.to_serve());
        e.run_until_idle().map_err(|e| e.to_string())?;
        sampled_ref = Some(e);
    }
    for s in served {
        let r = &s.request;
        if let Some(msg) = &s.failure {
            report.fail(format!("request {} failed: {msg}", r.index));
            continue;
        }
        let expected = if r.sampling.is_none() {
            if let Some(e) = &sampled_ref {
                e.engine().tokenizer().encode(&r.context);
                e.engine().tokenizer().encode(&r.query);
            }
            pipeline
                .run(&r.context, &r.query, r.max_new_tokens)
                .map_err(|e| e.to_string())?
                .generated_tokens
        } else {
            pipeline.engine().tokenizer().encode(&r.context);
            pipeline.engine().tokenizer().encode(&r.query);
            let e = sampled_ref
                .as_mut()
                .expect("built when a request is sampled");
            let id = e.submit(r.to_serve());
            e.run_until_idle()
                .map_err(|e| e.to_string())?
                .into_iter()
                .find(|o| o.id == id)
                .map(|o| o.outcome.generated_tokens)
                .unwrap_or_default()
        };
        report.check(expected == s.tokens, || {
            format!(
                "request {} ({}): served {} tokens differ from the reference's {}",
                r.index,
                if r.sampling.is_some() {
                    "sampled"
                } else {
                    "greedy"
                },
                s.tokens.len(),
                expected.len()
            )
        });
    }
    Ok(())
}

/// The end-to-end latency, throughput and SLO metrics of a run's
/// requests; `wall` is the timed window up to the last token event.
pub fn e2e_metrics<T: Timed>(report: &mut Report, requests: &[T], wall: Duration, slo: &SloLimits) {
    let ttft: Vec<f64> = requests.iter().filter_map(T::ttft_ms).collect();
    let tpot: Vec<f64> = requests.iter().flat_map(|r| r.tpot_ms()).collect();
    let (n, m) = (ttft.len(), tpot.len());
    for (name, values, p, count) in [
        ("ttft_p50_ms", &ttft, 50.0, n),
        ("ttft_p90_ms", &ttft, 90.0, n),
        ("tpot_p50_ms", &tpot, 50.0, m),
        ("tpot_p99_ms", &tpot, 99.0, m),
    ] {
        report.push(
            name,
            percentile(values, p).unwrap_or(0.0),
            "ms",
            Some(count),
        );
    }
    for (name, n, p) in [("ttft_p90_ms", n, 90.0), ("tpot_p99_ms", m, 99.0)] {
        if !crate::stats::resolves(n, p) {
            report.notes.push(format!(
                "{name}: {n} samples leave fewer than {} beyond p{p}; highest resolved tail: {}",
                crate::stats::MIN_BEYOND,
                crate::stats::highest_resolved_tail(n)
                    .map_or("none".to_string(), |t| format!("p{t}"))
            ));
        }
    }
    let tokens: usize = requests.iter().map(|r| r.token_times().len()).sum();
    report.push(
        "output_tok_per_s",
        tokens as f64 / wall.as_secs_f64().max(1e-9),
        "tok/s",
        Some(tokens),
    );
    let results: Vec<RequestResult> = requests.iter().map(T::result).collect();
    report.push(
        "slo_attainment",
        slo.attainment(&results),
        "ratio",
        Some(results.len()),
    );
    // The distribution the SLO limits are calibrated against.
    let mean_tpot: Vec<f64> = results
        .iter()
        .filter_map(|r| match r {
            RequestResult::Served { mean_tpot_ms, .. } => Some(*mean_tpot_ms),
            RequestResult::Failed => None,
        })
        .collect();
    report.push_local(
        "request_mean_tpot_p90_ms",
        percentile(&mean_tpot, 90.0).unwrap_or(0.0),
        "ms",
        Some(mean_tpot.len()),
    );
}

/// KV compression over the requests the engine served.
pub fn kv_compression_metric(report: &mut Report, run: &Run) {
    let (fp16, compressed) = run
        .served
        .iter()
        .filter_map(|s| s.stats.as_ref())
        .fold((0usize, 0usize), |(f, c), st| {
            (f + st.fp16_cache_bytes, c + st.cache_bytes)
        });
    report.push(
        "kv_compression_ratio",
        fp16 as f64 / compressed.max(1) as f64,
        "ratio",
        Some(run.served.len()),
    );
}

/// Serving-layer numbers of a traced run (table only: they exist only on
/// the in-process workloads).
pub fn serving_layer_metrics(report: &mut Report, run: &Run) {
    let step_ms: Vec<f64> = run
        .steps
        .iter()
        .map(|s| s.dur.as_secs_f64() * 1e3)
        .collect();
    let n = step_ms.len();
    report.push_local(
        "serving.step_ms_p50",
        percentile(&step_ms, 50.0).unwrap_or(0.0),
        "ms",
        Some(n),
    );
    report.push_local(
        "serving.step_ms_p99",
        percentile(&step_ms, 99.0).unwrap_or(0.0),
        "ms",
        Some(n),
    );
    let tokens: usize = run.steps.iter().map(|s| s.tokens).sum();
    report.push_local(
        "serving.batch_mean",
        tokens as f64 / n.max(1) as f64,
        "tok/step",
        Some(n),
    );
    let stats: Vec<&ServingStats> = run.served.iter().filter_map(|s| s.stats.as_ref()).collect();
    let wait: Vec<f64> = run
        .served
        .iter()
        .filter_map(|s| {
            let step = s.stats.as_ref()?.admitted_step?;
            let at = run.steps.iter().find(|st| st.clock == step)?.start;
            Some(at.saturating_duration_since(s.submitted).as_secs_f64() * 1e3)
        })
        .collect();
    report.push_local(
        "serving.queue_wait_ms_p50",
        percentile(&wait, 50.0).unwrap_or(0.0),
        "ms",
        Some(wait.len()),
    );
    let admit_steps: std::collections::BTreeSet<usize> =
        stats.iter().filter_map(|s| s.admitted_step).collect();
    report.push_local(
        "serving.prefill_step_share",
        admit_steps.len() as f64 / n.max(1) as f64,
        "ratio",
        Some(n),
    );
    let mean = |f: &dyn Fn(&ServingStats) -> u64| {
        stats.iter().map(|s| f(s) as f64).sum::<f64>() / stats.len().max(1) as f64 / 1e3
    };
    report.push_local(
        "serving.prefill_ms",
        mean(&|s| s.timings.prefill_us),
        "ms",
        Some(stats.len()),
    );
    report.push_local(
        "serving.compress_ms",
        mean(&|s| s.timings.compress_us),
        "ms",
        Some(stats.len()),
    );
    report.push_local(
        "serving.decode_ms",
        mean(&|s| s.timings.decode_us),
        "ms",
        Some(stats.len()),
    );
    let ctx: usize = stats.iter().map(|s| s.context_tokens).sum();
    let reused: usize = stats.iter().map(|s| s.prefix_reused_tokens).sum();
    report.push_local(
        "trie.reused_share",
        reused as f64 / ctx.max(1) as f64,
        "ratio",
        Some(stats.len()),
    );
    if !run.late_ms.is_empty() {
        report.push_local(
            "loadgen.late_p99_ms",
            percentile(&run.late_ms, 99.0).unwrap_or(0.0),
            "ms",
            Some(run.late_ms.len()),
        );
    }
}
