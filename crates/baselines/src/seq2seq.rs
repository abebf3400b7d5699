//! The seq2seq CTMM baselines: DMM \[15\], DeepMM \[37\], TransformerMM \[38\].
//!
//! All three share an encoder–decoder skeleton over tower/segment
//! embeddings and differ where the original papers differ:
//!
//! * **DMM** — GRU encoder, GRU decoder, greedy constrained decoding.
//! * **DeepMM** — adds additive attention from the decoder state over the
//!   encoder states, plus point-dropping data augmentation.
//! * **TransformerMM** — replaces the recurrent encoder with a
//!   self-attention block.
//!
//! Training uses teacher forcing with a sampled softmax (the full segment
//! vocabulary is only materialized at inference, which preserves the
//! paper's observation that seq2seq inference is much slower than HMM
//! path finding). Decoding is constrained to road-network successors, the
//! road-continuity prior all these systems rely on; the sequential
//! dependence is what produces their characteristic error propagation.

use lhmm_cellsim::dataset::Dataset;
use lhmm_cellsim::traj::CellularTrajectory;
use lhmm_core::types::{MapMatcher, MatchContext, MatchResult};
use lhmm_network::graph::{RoadNetwork, SegmentId};
use lhmm_network::path::Path;
use lhmm_neural::layers::{Activation, AdditiveAttention, Embedding, GruCell, Mlp};
use lhmm_neural::loss::softmax_cross_entropy_batch;
use lhmm_neural::optim::{clip_grad_norm, Adam};
use lhmm_neural::tape::{ParamId, ParamStore, Tape, Var};
use lhmm_neural::{init, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seq2seq configuration; use the constructors for the published variants.
#[derive(Clone, Debug)]
pub struct Seq2SeqConfig {
    /// Display name.
    pub name: String,
    /// Recurrent hidden width.
    pub hidden: usize,
    /// Embedding width for towers and segments.
    pub embed: usize,
    /// Training steps (one trajectory each).
    pub steps: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Decoder attention over encoder states (DeepMM, TransformerMM).
    pub attention: bool,
    /// Self-attention encoder instead of a GRU (TransformerMM).
    pub transformer_encoder: bool,
    /// Point-dropping data augmentation (DeepMM).
    pub augment: bool,
    /// Negatives per step in the sampled softmax.
    pub neg_samples: usize,
    /// Teacher-forcing cap on target length.
    pub max_target_len: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Seq2SeqConfig {
    fn base(name: &str, seed: u64) -> Self {
        Seq2SeqConfig {
            name: name.to_string(),
            hidden: 64,
            embed: 32,
            steps: 1_500,
            lr: 2e-3,
            attention: false,
            transformer_encoder: false,
            augment: false,
            neg_samples: 16,
            max_target_len: 60,
            seed,
        }
    }

    /// DMM \[15\]. The published system is purpose-built and heavily tuned
    /// for CTMM (including an RL fine-tuning stage we approximate with a
    /// longer supervised schedule), so it trains longer than the
    /// GPS-oriented seq2seq baselines.
    pub fn dmm(seed: u64) -> Self {
        Seq2SeqConfig {
            steps: 3_000,
            ..Self::base("DMM", seed)
        }
    }

    /// DeepMM \[37\].
    pub fn deepmm(seed: u64) -> Self {
        Seq2SeqConfig {
            attention: true,
            augment: true,
            ..Self::base("DeepMM", seed)
        }
    }

    /// TransformerMM \[38\].
    pub fn transformer_mm(seed: u64) -> Self {
        Seq2SeqConfig {
            attention: true,
            transformer_encoder: true,
            ..Self::base("TransformerMM", seed)
        }
    }

    /// A fast configuration for unit tests.
    pub fn fast_test(mut self) -> Self {
        self.steps = 200;
        self.hidden = 32;
        self.embed = 16;
        self
    }
}

/// A trained seq2seq matcher.
pub struct Seq2SeqMatcher {
    cfg: Seq2SeqConfig,
    store: ParamStore,
    tower_embed: Embedding,
    seg_embed: Embedding, // num_segments + 1 rows; last row is BOS
    encoder: GruCell,
    transformer: Option<(AdditiveAttention, Mlp)>,
    decoder: GruCell,
    attn: Option<AdditiveAttention>,
    out_embed: ParamId, // (num_segments × feat_dim) output projection
    num_segments: usize,
    bos: usize,
}

impl Seq2SeqMatcher {
    /// Trains the model on the dataset's training split.
    pub fn train(ds: &Dataset, cfg: Seq2SeqConfig) -> Self {
        let num_segments = ds.network.num_segments();
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0x5E25E2));
        let mut store = ParamStore::new();
        let tower_embed = Embedding::new(&mut store, ds.towers.len(), cfg.embed, &mut rng);
        let seg_embed = Embedding::new(&mut store, num_segments + 1, cfg.embed, &mut rng);
        let encoder = GruCell::new(&mut store, cfg.embed, cfg.hidden, &mut rng);
        let transformer = cfg.transformer_encoder.then(|| {
            (
                AdditiveAttention::new(&mut store, cfg.embed, cfg.embed, &mut rng),
                Mlp::new(
                    &mut store,
                    &[cfg.embed, cfg.hidden],
                    Activation::Relu,
                    &mut rng,
                ),
            )
        });
        let decoder = GruCell::new(&mut store, cfg.embed, cfg.hidden, &mut rng);
        let attn = cfg
            .attention
            .then(|| AdditiveAttention::new(&mut store, cfg.hidden, cfg.hidden, &mut rng));
        let feat_dim = if cfg.attention {
            2 * cfg.hidden
        } else {
            cfg.hidden
        };
        let out_embed = store.alloc(init::xavier_uniform(num_segments, feat_dim, &mut rng));

        let mut model = Seq2SeqMatcher {
            bos: num_segments,
            cfg,
            store,
            tower_embed,
            seg_embed,
            encoder,
            transformer,
            decoder,
            attn,
            out_embed,
            num_segments,
        };
        model.fit(ds, &mut rng);
        model
    }

    fn fit(&mut self, ds: &Dataset, rng: &mut StdRng) {
        let mut opt = Adam::new(self.cfg.lr, 1e-4);
        let mut tape = Tape::new();
        for _ in 0..self.cfg.steps {
            let rec = &ds.train[rng.gen_range(0..ds.train.len())];
            if rec.cellular.is_empty() || rec.truth.is_empty() {
                continue;
            }
            // DeepMM augmentation: drop random interior points.
            let mut tower_idx: Vec<usize> = rec
                .cellular
                .points
                .iter()
                .map(|p| p.tower.idx())
                .collect();
            if self.cfg.augment && tower_idx.len() > 4 && rng.gen_bool(0.5) {
                let drop = rng.gen_range(1..tower_idx.len() - 1);
                tower_idx.remove(drop);
            }

            let target: Vec<usize> = rec
                .truth
                .segments
                .iter()
                .take(self.cfg.max_target_len)
                .map(|s| s.idx())
                .collect();

            tape.reset();
            let (enc_states, enc_final) = self.encode(&mut tape, &tower_idx);

            // Teacher-forced decode with a sampled softmax: the subset for
            // each step is [target, negatives...]; correct class is 0.
            let mut h = enc_final;
            let mut prev = self.bos;
            let mut step_logits: Option<Var> = None;
            let mut n_steps = 0usize;
            for &t in &target {
                let x = self.seg_embed.forward(&mut tape, &self.store, &[prev]);
                h = self.decoder.step(&mut tape, &self.store, x, h);
                let feat = self.decode_feat(&mut tape, h, enc_states);
                // Sampled subset: target + hard negatives (successors of
                // prev) + uniform negatives.
                let mut subset = vec![t];
                if prev != self.bos {
                    for &s in ds.network.successors(SegmentId(prev as u32)) {
                        if s.idx() != t && subset.len() < 1 + self.cfg.neg_samples {
                            subset.push(s.idx());
                        }
                    }
                }
                while subset.len() < 1 + self.cfg.neg_samples {
                    let s = rng.gen_range(0..self.num_segments);
                    if s != t {
                        subset.push(s);
                    }
                }
                let w = tape.param(&self.store, self.out_embed);
                let rows = tape.gather_rows(w, &subset); // m×feat
                let feat_t = tape.transpose(feat); // feat×1
                let logits = tape.matmul(rows, feat_t); // m×1
                let logits_row = tape.transpose(logits); // 1×m
                step_logits = Some(match step_logits {
                    None => logits_row,
                    Some(acc) => tape.concat_rows(acc, logits_row),
                });
                n_steps += 1;
                prev = t;
            }
            let Some(lv) = step_logits else { continue };
            let targets = vec![0usize; n_steps];
            let (_, grad) = softmax_cross_entropy_batch(tape.value(lv), &targets, 0.0);
            tape.backward(lv, &grad);
            let pg = tape.param_grads();
            clip_grad_norm(pg, 5.0);
            opt.step(&mut self.store, pg);
        }
    }

    /// Runs the encoder; returns `(all states n×hidden, final state 1×hidden)`.
    fn encode(&self, tape: &mut Tape, tower_idx: &[usize]) -> (Var, Var) {
        if let (true, Some((att, proj))) =
            (self.cfg.transformer_encoder, self.transformer.as_ref())
        {
            let emb = self.tower_embed.forward(tape, &self.store, tower_idx); // n×e
            let mut states: Option<Var> = None;
            for i in 0..tower_idx.len() {
                let q = tape.gather_rows(emb, &[i]);
                let (ctx, _) = att.forward(tape, &self.store, q, emb, emb);
                let s = proj.forward(tape, &self.store, ctx); // 1×hidden
                states = Some(match states {
                    None => s,
                    Some(acc) => tape.concat_rows(acc, s),
                });
            }
            let states =
                states.unwrap_or_else(|| tape.constant(Matrix::zeros(1, self.cfg.hidden)));
            let final_state = tape.mean_rows(states);
            (states, final_state)
        } else {
            let mut h = tape.constant(Matrix::zeros(1, self.cfg.hidden));
            let mut states: Option<Var> = None;
            for &ti in tower_idx {
                let x = self.tower_embed.forward(tape, &self.store, &[ti]);
                h = self.encoder.step(tape, &self.store, x, h);
                states = Some(match states {
                    None => h,
                    Some(acc) => tape.concat_rows(acc, h),
                });
            }
            (states.unwrap_or(h), h)
        }
    }

    /// Decoder feature: the state, optionally concatenated with the
    /// attention context over encoder states.
    fn decode_feat(&self, tape: &mut Tape, h: Var, enc_states: Var) -> Var {
        match &self.attn {
            Some(att) => {
                let (ctx, _) = att.forward(tape, &self.store, h, enc_states, enc_states);
                tape.concat_cols(h, ctx)
            }
            None => h,
        }
    }

    /// Greedy constrained decode for one trajectory.
    fn decode(&self, net: &RoadNetwork, ctx: &MatchContext<'_>, traj: &CellularTrajectory) -> Path {
        let tower_idx: Vec<usize> = traj.points.iter().map(|p| p.tower.idx()).collect();
        let mut tape = Tape::new();
        let (enc_states, enc_final) = self.encode(&mut tape, &tower_idx);

        // Expected traveled length: the sum of straight hops (a lower bound
        // on the route), inflated for road-network detours.
        let positions = traj.effective_positions();
        let expected: f64 = positions.windows(2).map(|w| w[0].distance(w[1])).sum();
        let budget = expected * 1.3 + 500.0;
        let max_steps = ((budget / 80.0) as usize).clamp(8, 400);

        let w_out = self.store.value(self.out_embed);
        let mut h = enc_final;
        let mut prev: Option<SegmentId> = None;
        let mut out_segs: Vec<SegmentId> = Vec::new();
        let mut traveled = 0.0f64;
        for _ in 0..max_steps {
            let prev_idx = prev.map(|s| s.idx()).unwrap_or(self.bos);
            let x = self.seg_embed.forward(&mut tape, &self.store, &[prev_idx]);
            h = self.decoder.step(&mut tape, &self.store, x, h);
            let feat_var = self.decode_feat(&mut tape, h, enc_states);
            let feat = tape.value(feat_var).clone();
            // Full-vocabulary logits (the real cost of seq2seq inference).
            let logits = w_out.matmul(&feat.transpose()); // V×1

            let allowed: Vec<SegmentId> = match prev {
                None => ctx
                    .index
                    .k_nearest(net, positions[0], 20, 3_000.0)
                    .into_iter()
                    .map(|(s, _)| s)
                    .collect(),
                Some(p) => {
                    let mut a: Vec<SegmentId> = net.successors(p).to_vec();
                    a.retain(|&s| s != p);
                    a
                }
            };
            let chosen = if allowed.is_empty() {
                // Dead end: fall back to the global argmax (this is where
                // unconstrained seq2seq output goes off-road).
                match (0..self.num_segments)
                    .max_by(|&a, &b| logits.data()[a].total_cmp(&logits.data()[b]))
                {
                    Some(i) => SegmentId(i as u32),
                    None => break, // zero-segment network: nothing to emit
                }
            } else {
                match allowed
                    .iter()
                    .max_by(|&&a, &&b| logits.data()[a.idx()].total_cmp(&logits.data()[b.idx()]))
                {
                    Some(&seg) => seg,
                    None => break, // `allowed` checked non-empty above
                }
            };
            traveled += net.segment(chosen).length;
            out_segs.push(chosen);
            prev = Some(chosen);
            if traveled >= budget {
                break;
            }
        }
        let mut path = Path::new(out_segs);
        path.dedup_consecutive();
        path
    }
}

impl MapMatcher for Seq2SeqMatcher {
    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn match_trajectory(
        &mut self,
        ctx: &MatchContext<'_>,
        traj: &CellularTrajectory,
    ) -> MatchResult {
        if traj.is_empty() {
            return MatchResult::empty();
        }
        MatchResult {
            path: self.decode(ctx.net, ctx, traj),
            // Seq2seq has no candidate-preparation stage (paper §V-A3:
            // hitting ratio only applies to HMM-based methods).
            candidate_sets: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhmm_cellsim::dataset::DatasetConfig;
    use lhmm_eval::runner::evaluate_matcher;

    #[test]
    fn dmm_trains_and_matches() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(91));
        let mut m = Seq2SeqMatcher::train(&ds, Seq2SeqConfig::dmm(91).fast_test());
        let report = evaluate_matcher(&ds, &mut m, &ds.test[..4]);
        assert_eq!(report.method, "DMM");
        // Even a lightly trained seq2seq should produce on-network paths
        // with some overlap.
        assert!(report.recall > 0.0, "recall {}", report.recall);
        assert!(report.hitting_ratio.is_none());
        // Decoded paths are contiguous thanks to constrained decoding.
        let ctx = MatchContext {
            net: &ds.network,
            index: &ds.index,
            towers: &ds.towers,
        };
        let r = m.match_trajectory(&ctx, &ds.test[0].cellular);
        assert!(!r.path.is_empty());
    }

    #[test]
    fn all_variants_train() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(92));
        for cfg in [
            Seq2SeqConfig::dmm(92),
            Seq2SeqConfig::deepmm(92),
            Seq2SeqConfig::transformer_mm(92),
        ] {
            let name = cfg.name.clone();
            let mut m = Seq2SeqMatcher::train(&ds, cfg.fast_test());
            let report = evaluate_matcher(&ds, &mut m, &ds.test[..2]);
            assert_eq!(report.method, name);
            assert!(report.rmf.is_finite());
        }
    }

    #[test]
    fn variant_flags_differ() {
        assert!(!Seq2SeqConfig::dmm(0).attention);
        assert!(Seq2SeqConfig::deepmm(0).attention);
        assert!(Seq2SeqConfig::deepmm(0).augment);
        assert!(Seq2SeqConfig::transformer_mm(0).transformer_encoder);
    }
}

#[cfg(test)]
mod unit_tests {
    use super::*;
    use lhmm_cellsim::dataset::DatasetConfig;
    use lhmm_neural::Matrix;

    fn tiny_model() -> (Dataset, Seq2SeqMatcher) {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(93));
        let mut cfg = Seq2SeqConfig::dmm(93).fast_test();
        cfg.steps = 20;
        let m = Seq2SeqMatcher::train(&ds, cfg);
        (ds, m)
    }

    #[test]
    fn encoder_emits_one_state_per_point() {
        let (_, m) = tiny_model();
        let mut tape = Tape::new();
        let (states, final_state) = m.encode(&mut tape, &[0, 1, 2, 0, 3]);
        assert_eq!(tape.value(states).rows(), 5);
        assert_eq!(tape.value(states).cols(), m.cfg.hidden);
        assert_eq!(tape.value(final_state).shape(), (1, m.cfg.hidden));
        // The final state equals the last emitted state for the GRU encoder.
        let last_row =
            Matrix::row_vector(tape.value(states).row(4).to_vec());
        assert_eq!(&last_row, tape.value(final_state));
    }

    #[test]
    fn transformer_encoder_final_state_is_mean() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(94));
        let mut cfg = Seq2SeqConfig::transformer_mm(94).fast_test();
        cfg.steps = 5;
        let m = Seq2SeqMatcher::train(&ds, cfg);
        let mut tape = Tape::new();
        let (states, final_state) = m.encode(&mut tape, &[1, 2, 3]);
        let s = tape.value(states);
        let f = tape.value(final_state);
        for c in 0..f.cols() {
            let mean = (s[(0, c)] + s[(1, c)] + s[(2, c)]) / 3.0;
            assert!((f[(0, c)] - mean).abs() < 1e-5);
        }
    }

    #[test]
    fn decoded_path_is_contiguous_and_length_budgeted() {
        let (ds, mut m) = tiny_model();
        let ctx = lhmm_core::types::MatchContext {
            net: &ds.network,
            index: &ds.index,
            towers: &ds.towers,
        };
        for rec in ds.test.iter().take(3) {
            let r = m.match_trajectory(&ctx, &rec.cellular);
            assert!(r.path.is_contiguous(&ds.network), "decode broke continuity");
            // The length budget keeps outputs in the same order of magnitude
            // as the trip (expected·1.3 + slack, plus one overshoot segment).
            let positions = rec.cellular.effective_positions();
            let expected: f64 = positions.windows(2).map(|w| w[0].distance(w[1])).sum();
            let budget = expected * 1.3 + 500.0 + 600.0;
            assert!(
                r.path.length(&ds.network) <= budget + 1e-6,
                "path {} exceeds budget {}",
                r.path.length(&ds.network),
                budget
            );
        }
    }
}
