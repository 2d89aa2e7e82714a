//! The layer replay: the served requests driven again, in served order, on
//! a fresh `InferenceEngine` through the public call of each layer —
//! tokenize, prefill, cache build, retrieval score, precision plan,
//! reorder+quantize, decode, sampler — each wrapped in a span.
//!
//! Decode is teacher-forced on the served tokens and runs twice per step:
//! once over the Cocktail cache (whose sampler pick must equal the served
//! token) and once over an FP16 cache of the same prompt, which gives the
//! FP16 step time and the logit KL divergence of the Cocktail cache.

use crate::trace::Recorder;
use cocktail_core::reorder::apply_plan;
use cocktail_core::{ChunkQuantSearch, CocktailConfig};
use cocktail_hwsim::{AcceleratorSpec, DeploymentModel, KvCacheProfile, RequestShape};
use cocktail_kvcache::{ChunkSegmentation, ChunkedKvCache, ChunkedLayerCache};
use cocktail_model::{
    BatchPrefill, InferenceEngine, ModelProfile, PrefillSlot, SamplerChain, SamplingParams,
};
use cocktail_quant::Bitwidth;
use cocktail_retrieval::chunking::chunk_words;
use std::time::Instant;

/// What the served run produced for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Served {
    /// The committed token ids (in-process serving).
    Tokens(Vec<u32>),
    /// The answer text (over the wire, where ids are not exposed).
    Text(String),
}

/// One request to replay.
#[derive(Debug, Clone)]
pub struct ReplayRequest {
    /// Request id used in spans.
    pub id: u64,
    /// Document or transcript.
    pub context: String,
    /// Question or user turn.
    pub query: String,
    /// Generation budget.
    pub max_new_tokens: usize,
    /// Sampler settings; `None` decodes greedily.
    pub sampling: Option<SamplingParams>,
    /// The served output to reproduce.
    pub served: Served,
}

/// What replaying one request measured.
#[derive(Debug, Clone, Default)]
pub struct ReplayOutcome {
    /// Whether the replay reproduced the served output exactly.
    pub matches: bool,
    /// Context tokens.
    pub context_tokens: usize,
    /// Prompt tokens (context + query).
    pub prompt_tokens: usize,
    /// Chunks per precision: (INT2, INT4, FP16).
    pub chunks: (usize, usize, usize),
    /// Cocktail cache bytes after the plan, before decode.
    pub cache_bytes: usize,
    /// The same cache's FP16 bytes.
    pub fp16_cache_bytes: usize,
    /// Σ KL(FP16 ‖ Cocktail) over decode steps, in nats.
    pub kl_sum: f64,
    /// Decode steps contributing to `kl_sum`.
    pub kl_steps: usize,
    /// Σ over (layer, query head) of one `attend` on the final Cocktail
    /// cache, ns (traced runs only).
    pub attend_sum_ns: u64,
    /// Mean Cocktail `decode_step` time over the last decode steps, ns.
    pub late_decode_ns: u64,
}

/// The replay engine and the settings it mirrors.
pub struct Replayer {
    engine: InferenceEngine,
    config: CocktailConfig,
    search: ChunkQuantSearch,
}

/// A greedy sampler: temperature 0 is the engine's argmax.
fn greedy() -> SamplingParams {
    SamplingParams::seeded(0).with_temperature(0.0)
}

impl Replayer {
    /// A fresh engine for `profile`, primed with the tokenizer history of
    /// the served engine (`primer` texts encoded in order), since token ids
    /// are assigned in first-encounter order.
    pub fn new(
        profile: ModelProfile,
        config: CocktailConfig,
        primer: &[&str],
    ) -> Result<Self, String> {
        let engine = InferenceEngine::new(profile).map_err(|e| e.to_string())?;
        for text in primer {
            engine.tokenizer().encode(text);
        }
        let search = ChunkQuantSearch::new(config.clone());
        Ok(Self {
            engine,
            config,
            search,
        })
    }

    /// The engine, whose tokenizer callers advance past requests they do
    /// not replay.
    pub fn engine(&self) -> &InferenceEngine {
        &self.engine
    }

    /// Builds the chunked cache of a cold prefill: the context rows are
    /// segmented into chunks, the query rows go to the FP16 tail.
    fn build_cache(
        &self,
        prefill: &BatchPrefill,
        context_len: usize,
    ) -> Result<ChunkedKvCache, String> {
        let model = self.engine.config();
        let seg = ChunkSegmentation::new(context_len, self.config.chunk_size)
            .map_err(|e| e.to_string())?;
        let mut cache = ChunkedKvCache::new(model.n_layers, model.n_kv_heads);
        for layer in 0..model.n_layers {
            for head in 0..model.n_kv_heads {
                let raw = &prefill.suffix_kv[layer][head];
                let k = raw.k.slice_rows(0, context_len);
                let v = raw.v.slice_rows(0, context_len);
                let mut lc =
                    ChunkedLayerCache::from_prefill(&k, &v, &seg).map_err(|e| e.to_string())?;
                for row in context_len..raw.k.rows() {
                    lc.append_decode_token(raw.k.row(row), raw.v.row(row))
                        .map_err(|e| e.to_string())?;
                }
                cache.set(layer, head, lc);
            }
        }
        Ok(cache)
    }

    /// Replays one request.
    pub fn replay(&self, rec: &mut Recorder, req: &ReplayRequest) -> Result<ReplayOutcome, String> {
        let id = Some(req.id);
        let top = rec.begin("replay.request", id);
        let out = self.replay_inner(rec, req);
        rec.end(top);
        out
    }

    fn replay_inner(
        &self,
        rec: &mut Recorder,
        req: &ReplayRequest,
    ) -> Result<ReplayOutcome, String> {
        let id = Some(req.id);
        let tok = self.engine.tokenizer();
        let (ctx_ids, q_ids, horizon) = rec.span("tokenize", id, || {
            let c = tok.encode(&req.context);
            let q = tok.encode(&req.query);
            (c, q, tok.interned_words())
        });
        let context_len = ctx_ids.len();
        let mut prompt = ctx_ids;
        prompt.extend_from_slice(&q_ids);
        let prefill = rec
            .span("prefill_batch", id, || {
                self.engine.prefill_batch(&[PrefillSlot::cold(&prompt)])
            })
            .map_err(|e| e.to_string())?
            .pop()
            .ok_or("empty prefill batch")?;
        let (mut cocktail, mut fp16) = rec.span("cache_build", id, || -> Result<_, String> {
            Ok((
                self.build_cache(&prefill, context_len)?,
                self.build_cache(&prefill, context_len)?,
            ))
        })?;
        let fp16_cache_bytes = cocktail.total_fp16_reference_bytes();

        let chunk_texts = chunk_words(&req.context, self.config.chunk_size);
        let mut chunks = (0, 0, 0);
        if self.config.enable_search && !chunk_texts.is_empty() {
            let scores = rec.span("retrieval.score", id, || {
                self.config.encoder.build().score(&req.query, &chunk_texts)
            });
            let plan = rec
                .span("search.plan", id, || self.search.plan_from_scores(&scores))
                .map_err(|e| e.to_string())?;
            chunks = (
                plan.count(Bitwidth::Int2),
                plan.count(Bitwidth::Int4),
                plan.count(Bitwidth::Fp16),
            );
            rec.span("reorder_quant", id, || {
                cocktail.try_for_each_mut(|_, _, layer| {
                    apply_plan(
                        layer,
                        &plan,
                        self.config.group_size,
                        self.config.enable_reorder,
                    )
                })
            })
            .map_err(|e| e.to_string())?;
        }
        let cache_bytes = cocktail.total_storage_bytes();

        let mut chain = SamplerChain::new(req.sampling.clone().unwrap_or_else(greedy));
        let forced: Option<&[u32]> = match &req.served {
            Served::Tokens(t) => Some(t),
            Served::Text(_) => None,
        };
        let mut matches = true;
        let mut generated: Vec<u32> = Vec::with_capacity(req.max_new_tokens);
        let mut pick = rec.span("sampler", id, || chain.sample(&prefill.last_logits, &[]));
        let (mut kl_sum, mut kl_steps) = (0.0, 0);
        let mut decode_ns: Vec<u64> = Vec::with_capacity(req.max_new_tokens);
        while generated.len() < req.max_new_tokens {
            let token = match forced {
                Some(t) => {
                    let Some(&served) = t.get(generated.len()) else {
                        matches = false;
                        break;
                    };
                    matches &= served == pick;
                    served
                }
                None => pick,
            };
            generated.push(token);
            if generated.len() == req.max_new_tokens {
                break;
            }
            let pos = prompt.len() + generated.len() - 1;
            let t0 = Instant::now();
            let step = rec
                .span("decode_step", id, || {
                    self.engine.decode_step(token, pos, &mut cocktail)
                })
                .map_err(|e| e.to_string())?;
            decode_ns.push(t0.elapsed().as_nanos() as u64);
            let reference = rec
                .span("decode_step.fp16", id, || {
                    self.engine.decode_step(token, pos, &mut fp16)
                })
                .map_err(|e| e.to_string())?;
            kl_sum += kl_divergence(&reference.logits, &step.logits);
            kl_steps += 1;
            pick = rec.span("sampler", id, || chain.sample(&step.logits, &generated));
        }
        if let Some(t) = forced {
            matches &= t.len() == generated.len();
        }
        if let Served::Text(text) = &req.served {
            matches &= tok.decode_with_horizon(&generated, horizon) == *text;
        }

        let mut attend_sum_ns = 0;
        if rec.enabled() {
            attend_sum_ns = rec.span("attend.sum", id, || self.attend_sum_ns(&cocktail));
        }
        let tail = decode_ns.len().min(16);
        let late_decode_ns = if tail == 0 {
            0
        } else {
            decode_ns[decode_ns.len() - tail..].iter().sum::<u64>() / tail as u64
        };
        Ok(ReplayOutcome {
            matches,
            context_tokens: context_len,
            prompt_tokens: prompt.len(),
            chunks,
            cache_bytes,
            fp16_cache_bytes,
            kl_sum,
            kl_steps,
            attend_sum_ns,
            late_decode_ns,
        })
    }

    /// Σ over (layer, query head) of one `attend` call on `cache`, the
    /// attention work of one decode step, in ns (median of three passes).
    fn attend_sum_ns(&self, cache: &ChunkedKvCache) -> u64 {
        let model = self.engine.config();
        let head_dim = model.head_dim();
        let scale = 1.0 / (head_dim as f32).sqrt();
        let q = cocktail_tensor::rng::gaussian_matrix(1, head_dim, 1.0, 17);
        let mut passes: Vec<u64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                for layer in 0..model.n_layers {
                    for h in 0..model.n_heads {
                        let lc = cache
                            .get(layer, h / model.gqa_group_size())
                            .expect("replayed cache is fully populated");
                        std::hint::black_box(lc.attend(&q, scale).expect("query matches head_dim"));
                    }
                }
                t0.elapsed().as_nanos() as u64
            })
            .collect();
        passes.sort_unstable();
        passes[1]
    }
}

/// KL(P ‖ Q) in nats between the softmax distributions of two logit rows.
pub fn kl_divergence(p_logits: &[f32], q_logits: &[f32]) -> f64 {
    let log_softmax = |logits: &[f32]| -> Vec<f64> {
        let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64;
        let sum: f64 = logits.iter().map(|&x| (x as f64 - max).exp()).sum();
        let log_z = max + sum.ln();
        logits.iter().map(|&x| x as f64 - log_z).collect()
    };
    let (lp, lq) = (log_softmax(p_logits), log_softmax(q_logits));
    lp.iter()
        .zip(&lq)
        .map(|(&a, &b)| a.exp() * (a - b))
        .sum::<f64>()
        .max(0.0)
}

/// Time of one `attend` call per cached token, in ns, on a cache of
/// `context_len` tokens whose chunks all hold precision `bitwidth`.
pub fn attend_ns_per_token(
    head_dim: usize,
    context_len: usize,
    config: &CocktailConfig,
    bitwidth: Bitwidth,
) -> Result<f64, String> {
    let k = cocktail_tensor::rng::gaussian_matrix(context_len, head_dim, 1.0, 5);
    let v = cocktail_tensor::rng::gaussian_matrix(context_len, head_dim, 1.0, 6);
    let seg = ChunkSegmentation::new(context_len, config.chunk_size).map_err(|e| e.to_string())?;
    let mut cache = ChunkedLayerCache::from_prefill(&k, &v, &seg).map_err(|e| e.to_string())?;
    if !bitwidth.is_float() {
        for chunk in 0..cache.chunk_count() {
            cache
                .quantize_chunk(chunk, bitwidth, config.group_size)
                .map_err(|e| e.to_string())?;
        }
    }
    let q = cocktail_tensor::rng::gaussian_matrix(1, head_dim, 1.0, 7);
    let scale = 1.0 / (head_dim as f32).sqrt();
    // Enough calls for ~20 ms of work, median of 5 batches.
    let t0 = Instant::now();
    std::hint::black_box(cache.attend(&q, scale).map_err(|e| e.to_string())?);
    let once = t0.elapsed().as_nanos().max(1) as u64;
    let calls = (4_000_000 / once).clamp(1, 10_000);
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                std::hint::black_box(
                    cache
                        .attend(std::hint::black_box(&q), scale)
                        .expect("shapes match"),
                );
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    Ok(batches[2] / cache.total_tokens() as f64)
}

/// The analytic Fig. 5 prediction (A800, batch 16, the model's full-size
/// configuration at its maximum context): Cocktail TPOT / FP16 TPOT.
pub fn hwsim_tpot_ratio(profile: &ModelProfile) -> f64 {
    const OUTPUT_LEN: usize = 128;
    const BATCH: usize = 16;
    let full = profile.full().clone();
    let context = full.max_context - OUTPUT_LEN;
    let deployment = DeploymentModel::new(
        AcceleratorSpec::a800(),
        full,
        RequestShape::new(context, OUTPUT_LEN),
    );
    let cocktail = deployment
        .tpot(&KvCacheProfile::cocktail_default(), BATCH)
        .total_us();
    let fp16 = deployment.tpot(&KvCacheProfile::fp16(), BATCH).total_us();
    cocktail / fp16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::shape;
    use cocktail_core::CocktailPipeline;
    use cocktail_workloads::{TaskGenerator, WorkloadConfig};

    fn config() -> CocktailConfig {
        CocktailConfig::default().with_chunk_size(8).unwrap()
    }

    fn request(seed: u64, tokens: Vec<u32>) -> (ReplayRequest, String) {
        let task = TaskGenerator::qasper(WorkloadConfig::tiny()).generate(seed);
        let req = ReplayRequest {
            id: seed,
            context: task.context.clone(),
            query: task.query.clone(),
            max_new_tokens: 6,
            sampling: None,
            served: Served::Tokens(tokens),
        };
        (req, task.context)
    }

    fn served_tokens(seed: u64) -> Vec<u32> {
        let (req, _) = request(seed, Vec::new());
        let pipeline = CocktailPipeline::new(ModelProfile::tiny(), config()).unwrap();
        pipeline
            .run(&req.context, &req.query, 6)
            .unwrap()
            .generated_tokens
    }

    fn traced_shape(seed: u64) -> Vec<(&'static str, Option<usize>, Option<u64>)> {
        let tokens = served_tokens(seed);
        let (req, _) = request(seed, tokens);
        let replayer = Replayer::new(ModelProfile::tiny(), config(), &[]).unwrap();
        let mut rec = Recorder::new(true, Instant::now());
        let out = replayer.replay(&mut rec, &req).unwrap();
        assert!(out.matches, "replay reproduces the pipeline's tokens");
        shape(rec.spans())
    }

    #[test]
    fn replay_reproduces_the_pipeline_and_traces_per_seed() {
        let a = traced_shape(3);
        assert_eq!(a, traced_shape(3), "same seed, same trace");
        // Another document has another length, hence other spans.
        let other = (4..20).map(traced_shape).find(|b| *b != a);
        assert!(other.is_some(), "a different seed gives a different trace");
        assert_eq!(a.iter().filter(|s| s.1.is_none()).count(), 1);
    }

    #[test]
    fn replay_flags_a_wrong_served_token() {
        let mut tokens = served_tokens(5);
        tokens[2] ^= 1;
        let (req, _) = request(5, tokens);
        let replayer = Replayer::new(ModelProfile::tiny(), config(), &[]).unwrap();
        let mut rec = Recorder::new(false, Instant::now());
        assert!(!replayer.replay(&mut rec, &req).unwrap().matches);
    }

    #[test]
    fn kl_is_zero_for_equal_logits_and_positive_otherwise() {
        let p = [1.0, 2.0, 3.0];
        assert!(kl_divergence(&p, &p).abs() < 1e-12);
        assert!(kl_divergence(&p, &[3.0, 2.0, 1.0]) > 0.1);
    }
}
