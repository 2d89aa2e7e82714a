//! `chat_gateway`: multi-turn conversations over SSE against a two-replica
//! `GatewayServer` with prefix-affinity routing.

use crate::replay::{ReplayOutcome, ReplayRequest, Replayer, Served};
use crate::report::Report;
use crate::trace::Recorder;
use cocktail_core::{CocktailConfig, CocktailPipeline, PrefixCacheConfig};
use cocktail_model::ModelProfile;
use cocktail_server::{
    ClientError, EngineSettings, GatewayClient, GatewayConfig, GatewayServer, GenerateRequest,
    StatsResponse,
};
use cocktail_workloads::{TrafficConfig, TrafficGenerator, TrafficRequest};
use std::time::{Duration, Instant};

/// Gateway replicas.
pub const REPLICAS: usize = 2;
/// Turns per conversation.
pub const TURNS: usize = 6;
/// Words per user turn.
pub const WORDS_PER_TURN: usize = 32;
/// Conversation preamble, words.
pub const PREAMBLE_WORDS: usize = 768;
/// Tokens generated per turn.
pub const NEW_TOKENS: usize = 32;
/// Conversations generated per run: about 2.5 × what two clients finish
/// in a 20 s window on a 2-core Xeon, so the window, not the input, ends
/// the run.
pub const CONVERSATIONS: usize = 160;

/// The conversations of a run, turn-major within each conversation.
pub fn conversations(seed: u64) -> Vec<Vec<TrafficRequest>> {
    let config = TrafficConfig::small(CONVERSATIONS)
        .with_chat_turns(TURNS, WORDS_PER_TURN)
        .with_chat_preamble(PREAMBLE_WORDS)
        .with_max_new_tokens(NEW_TOKENS);
    let mut by_conv: Vec<Vec<TrafficRequest>> = vec![Vec::new(); CONVERSATIONS];
    for r in TrafficGenerator::new(config, seed).generate() {
        let chat = r.chat.expect("chat traffic");
        by_conv[chat.conversation].push(r);
    }
    for conv in &mut by_conv {
        conv.sort_by_key(|r| r.chat.expect("chat traffic").turn);
    }
    by_conv
}

/// The warm-up request routed to replica `r`: a task family of its own,
/// so it shares no prefix with another replica's warm-up.
pub fn warmup_request(r: usize) -> GenerateRequest {
    let kind = cocktail_workloads::TaskKind::ALL[r % cocktail_workloads::TaskKind::ALL.len()];
    let task =
        cocktail_workloads::TaskGenerator::new(kind, cocktail_workloads::WorkloadConfig::tiny())
            .generate(u64::MAX);
    GenerateRequest::new(
        format!("warm-up {r} . {}", task.context),
        task.query,
        WARMUP_TOKENS,
    )
}

/// A started gateway whose replicas have each served one warm-up request.
pub struct Gateway {
    /// The server.
    pub server: GatewayServer,
    /// `warmup_of[r]` is the warm-up index replica `r` served.
    pub warmup_of: Vec<usize>,
}

/// Wire id `"r<replica>:req-<engine id>"` split into its parts.
pub fn parse_wire_id(id: &str) -> Option<(usize, u64)> {
    let (r, n) = id.strip_prefix('r')?.split_once(':')?;
    Some((r.parse().ok()?, n.strip_prefix("req-")?.parse().ok()?))
}

/// Starts the gateway and warms each replica. The first warm-up stream
/// is held open while the second is submitted, so least-loaded routing
/// sends them to different replicas.
pub fn setup(profile: &ModelProfile, config: &CocktailConfig) -> Result<Gateway, String> {
    let settings = EngineSettings::new(profile.clone(), config.clone())
        .with_prefix_cache(PrefixCacheConfig::default());
    let server = GatewayServer::start(
        settings,
        GatewayConfig::default()
            .with_replicas(REPLICAS)
            .with_workers(8),
    )
    .map_err(|e| e.to_string())?;
    let client = GatewayClient::new(server.addr());
    // Opening a stream returns once the request is accepted, so each
    // warm-up is still in flight (raising its replica's load) when the
    // next one is routed.
    let streams = (0..REPLICAS)
        .map(|r| client.open_stream(&warmup_request(r)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut warmup_of = vec![usize::MAX; REPLICAS];
    for (w, mut s) in streams.into_iter().enumerate() {
        let ev = s
            .next_event()
            .map_err(|e| e.to_string())?
            .ok_or("warm-up stream closed")?;
        let (replica, _) = parse_wire_id(&ev.id).ok_or("warm-up id lacks a replica")?;
        s.finish().map_err(|e| e.to_string())?;
        warmup_of[replica] = w;
    }
    if warmup_of.contains(&usize::MAX) {
        return Err("warm-up did not reach every replica".into());
    }
    Ok(Gateway { server, warmup_of })
}

/// One served turn.
#[derive(Debug, Clone)]
pub struct Turn {
    /// Conversation index.
    pub conversation: usize,
    /// Turn index.
    pub turn: usize,
    /// Serving replica and its engine request id.
    pub replica: Option<(usize, u64)>,
    /// Open → first token, ms.
    pub ttft_ms: Option<f64>,
    /// Token event times.
    pub token_times: Vec<Instant>,
    /// Concatenated SSE pieces.
    pub streamed: String,
    /// The `done` event's answer.
    pub answer: Option<String>,
    /// Failure (transport error, 429, failed finish, bad stream).
    pub failure: Option<String>,
    /// Whether the failure was a 429.
    pub rejected: bool,
}

impl crate::inproc::Timed for Turn {
    fn ttft_ms(&self) -> Option<f64> {
        self.ttft_ms
    }

    fn token_times(&self) -> &[Instant] {
        &self.token_times
    }

    fn failed(&self) -> bool {
        self.failure.is_some()
    }
}

fn serve_turn(client: &GatewayClient, rec: &mut Recorder, req: &TrafficRequest) -> Turn {
    let chat = req.chat.expect("chat traffic");
    let mut turn = Turn {
        conversation: chat.conversation,
        turn: chat.turn,
        replica: None,
        ttft_ms: None,
        token_times: Vec::new(),
        streamed: String::new(),
        answer: None,
        failure: None,
        rejected: false,
    };
    let body = GenerateRequest::new(
        req.task.context.clone(),
        req.task.query.clone(),
        req.max_new_tokens,
    );
    let rid = Some(req.index as u64);
    let top = rec.begin("chat.turn", rid);
    let t0 = Instant::now();
    let opened = rec.span("http.open_stream", rid, || client.open_stream(&body));
    let mut stream = match opened {
        Ok(s) => s,
        Err(e) => {
            turn.rejected = matches!(e, ClientError::Status { status: 429, .. });
            turn.failure = Some(e.to_string());
            rec.end(top);
            return turn;
        }
    };
    // Spans: waiting for the first event, then the rest of the stream.
    let mut phase = Some(rec.begin("http.first_event", rid));
    let mut first = true;
    let mut done = false;
    loop {
        match stream.next_event() {
            Ok(Some(ev)) => {
                let now = Instant::now();
                if std::mem::take(&mut first) {
                    if let Some(open) = phase.take() {
                        rec.end(open);
                    }
                    phase = Some(rec.begin("http.stream_rest", rid));
                }
                if turn.replica.is_none() {
                    turn.replica = parse_wire_id(&ev.id);
                }
                if ev.done {
                    turn.answer = ev.answer.clone();
                    if let Some(err) = ev.error {
                        turn.failure = Some(err);
                    } else if ev.finish.as_deref() != Some("length") {
                        turn.failure = Some(format!("finish {:?}", ev.finish));
                    }
                    done = true;
                    break;
                }
                if turn.ttft_ms.is_none() {
                    turn.ttft_ms = Some((now - t0).as_secs_f64() * 1e3);
                }
                turn.token_times.push(now);
                turn.streamed.push_str(&ev.piece);
            }
            Ok(None) => break,
            Err(e) => {
                turn.failure = Some(e.to_string());
                break;
            }
        }
    }
    if let Some(open) = phase.take() {
        rec.end(open);
    }
    rec.end(top);
    if turn.failure.is_none() {
        if !done {
            turn.failure = Some("stream ended without a done event".into());
        } else if turn.answer.as_deref() != Some(turn.streamed.as_str()) {
            turn.failure = Some("SSE pieces differ from the done answer".into());
        } else if turn.token_times.len() != req.max_new_tokens {
            turn.failure = Some(format!(
                "{} token events, expected {}",
                turn.token_times.len(),
                req.max_new_tokens
            ));
        }
    }
    turn
}

/// Runs the closed loop: one client thread per core, each taking every
/// `clients`-th conversation and running its turns back to back; a client
/// starts a new conversation only while `window` has not passed.
pub fn closed_loop(
    addr: std::net::SocketAddr,
    convs: &[Vec<TrafficRequest>],
    clients: usize,
    window: Duration,
    epoch: Instant,
    trace: bool,
) -> (Vec<Turn>, Recorder, Instant, Instant) {
    let start = Instant::now();
    let results: Vec<(Vec<Turn>, Recorder)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let client = GatewayClient::new(addr).with_timeout(Duration::from_secs(60));
                    let mut rec = Recorder::new(trace, epoch);
                    let mut turns = Vec::new();
                    for conv in convs.iter().skip(c).step_by(clients) {
                        if start.elapsed() >= window {
                            break;
                        }
                        for req in conv {
                            turns.push(serve_turn(&client, &mut rec, req));
                        }
                    }
                    (turns, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end = Instant::now();
    let mut all = Vec::new();
    let mut rec = Recorder::new(trace, epoch);
    for (turns, r) in results {
        all.extend(turns);
        rec.absorb(r);
    }
    all.sort_by_key(|t| (t.conversation, t.turn));
    (all, rec, start, end)
}

/// Polls the gateway until nothing is running or queued (at most 5 s).
pub fn wait_idle(client: &GatewayClient) -> Result<StatsResponse, String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = client.stats().map_err(|e| e.to_string())?;
        if (stats.running == 0 && stats.queued == 0) || Instant::now() > deadline {
            return Ok(stats);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Idle leak check over the wire.
pub fn check_idle(stats: &StatsResponse, report: &mut Report) {
    report.check(stats.running == 0 && stats.queued == 0, || {
        format!(
            "gateway not idle: running {} queued {}",
            stats.running, stats.queued
        )
    });
    report.check(stats.pinned_prefix_entries == 0, || {
        format!(
            "idle leak: {} pinned prefix entries",
            stats.pinned_prefix_entries
        )
    });
    report.check(stats.kv_bytes_in_use == stats.prefix_resident_bytes, || {
        format!(
            "idle leak: kv_bytes_in_use {} != prefix_resident_bytes {}",
            stats.kv_bytes_in_use, stats.prefix_resident_bytes
        )
    });
}

/// Conversations that contribute one checked turn each. Each client
/// finishes its first ten conversations well inside the window, so the
/// checked set (and the quality numbers computed on it) depends on the
/// seed alone.
pub const CHECKED_CONVERSATIONS: usize = 20;

/// Which turns the solo references and the layer replay check: one turn
/// of each of the first [`CHECKED_CONVERSATIONS`] conversations, cycling
/// through the turn positions, so the checked turns span many
/// transcripts and every transcript length.
pub fn is_checked(turn: &Turn) -> bool {
    turn.conversation < CHECKED_CONVERSATIONS && turn.turn == turn.conversation % TURNS
}

/// The per-replica serving order: each replica's turns sorted by engine
/// request id, which is its submission (and tokenizer) order.
pub fn replica_orders(turns: &[Turn]) -> Vec<Vec<&Turn>> {
    let mut orders: Vec<Vec<&Turn>> = vec![Vec::new(); REPLICAS];
    for t in turns {
        if let Some((r, _)) = t.replica {
            if r < REPLICAS {
                orders[r].push(t);
            }
        }
    }
    for order in &mut orders {
        order.sort_by_key(|t| t.replica.map(|(_, id)| id));
    }
    orders
}

/// Checks the checked turns twice, each against the text the gateway
/// served: a solo `CocktailPipeline::run`, and the layer replay (recorded
/// in `rec`). Both follow the serving replica's tokenizer history — its
/// warm-up, then every turn it served, in order — since token ids follow
/// first-encounter order. Returns the replay outcomes.
pub fn verify(
    profile: &ModelProfile,
    config: &CocktailConfig,
    gateway_warmups: &[usize],
    turns: &[Turn],
    convs: &[Vec<TrafficRequest>],
    rec: &mut Recorder,
    report: &mut Report,
) -> Result<Vec<ReplayOutcome>, String> {
    let mut outs = Vec::new();
    for (replica, order) in replica_orders(turns).into_iter().enumerate() {
        if !order.iter().any(|t| is_checked(t)) {
            continue;
        }
        let w = warmup_request(gateway_warmups[replica]);
        let pipeline =
            CocktailPipeline::new(profile.clone(), config.clone()).map_err(|e| e.to_string())?;
        pipeline
            .run(&w.context, &w.query, w.max_new_tokens)
            .map_err(|e| e.to_string())?;
        let replayer = Replayer::new(profile.clone(), config.clone(), &[&w.context, &w.query])?;
        for t in order {
            let req = &convs[t.conversation][t.turn];
            let (context, query) = (&req.task.context, &req.task.query);
            if !is_checked(t) || t.failure.is_some() {
                for engine in [pipeline.engine(), replayer.engine()] {
                    engine.tokenizer().encode(context);
                    engine.tokenizer().encode(query);
                }
                continue;
            }
            let solo = rec
                .span("reference.pipeline", Some(req.index as u64), || {
                    pipeline.run(context, query, req.max_new_tokens)
                })
                .map_err(|e| e.to_string())?;
            report.check(Some(solo.answer.as_str()) == t.answer.as_deref(), || {
                format!(
                    "conversation {} turn {}: answer differs from the solo pipeline",
                    t.conversation, t.turn
                )
            });
            let replayed = ReplayRequest {
                id: req.index as u64,
                context: context.clone(),
                query: query.clone(),
                max_new_tokens: req.max_new_tokens,
                sampling: None,
                served: Served::Text(t.answer.clone().unwrap_or_default()),
            };
            let out = replayer.replay(rec, &replayed)?;
            report.check(out.matches, || {
                format!(
                    "layer replay of conversation {} turn {} differs",
                    t.conversation, t.turn
                )
            });
            outs.push(out);
        }
    }
    Ok(outs)
}

/// Tokens each warm-up generates: enough to keep it in flight while the
/// next warm-up is routed.
pub const WARMUP_TOKENS: usize = 48;
