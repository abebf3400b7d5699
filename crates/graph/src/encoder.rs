//! The Het-Graph Encoder (paper §IV-B, Eq. 4–5) and its ablation variants.
//!
//! Nodes start from a learnable table (the `W_init · one-hot` of the paper);
//! each layer sends per-relation messages through relation-specific weight
//! matrices, mean-aggregates them over neighbor groups, and fuses them with
//! the node's own state. The encoder is trained self-supervised by edge
//! reconstruction: embeddings of connected nodes should score higher than
//! random pairs under a dot-product decoder — the standard R-GCN link
//! prediction setup of Schlichtkrull et al. \[43\].

use crate::relgraph::{MultiRelGraph, Relation, RELATIONS};
use lhmm_cellsim::tower::TowerId;
use lhmm_network::graph::SegmentId;
use lhmm_neural::layers::Linear;
use lhmm_neural::loss::bce_with_logits;
use lhmm_neural::optim::{clip_grad_norm, Adam};
use lhmm_neural::sparse::SparseMatrix;
use lhmm_neural::tape::{ParamStore, Tape, Var};
use lhmm_neural::{init, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;

/// Which encoder architecture to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EncoderKind {
    /// The full Het-Graph Encoder: per-relation message passing (LHMM).
    Heterogeneous,
    /// A homogeneous GCN over the merged edge set (ablation LHMM-H).
    Homogeneous,
    /// A plain trainable embedding table with a dense layer, no message
    /// passing (ablation LHMM-E).
    MlpEmbedding,
}

/// Encoder hyperparameters.
#[derive(Clone, Debug)]
pub struct EncoderConfig {
    /// Embedding width (paper: 128).
    pub dim: usize,
    /// Message-passing iterations `q` (paper: 2).
    pub layers: usize,
    /// Training steps (each step samples a fresh edge batch).
    pub epochs: usize,
    /// Positive edges per step.
    pub batch_edges: usize,
    /// Negative samples per positive.
    pub neg_per_pos: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
    /// Architecture variant.
    pub kind: EncoderKind,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig {
            dim: 64,
            layers: 2,
            epochs: 120,
            batch_edges: 512,
            neg_per_pos: 1,
            lr: 3e-3,
            seed: 0,
            kind: EncoderKind::Heterogeneous,
        }
    }
}

/// Frozen node embeddings produced by encoder training.
#[derive(Clone, Debug)]
pub struct Embeddings {
    /// Embedding width.
    pub dim: usize,
    /// Tower count (row offset of the first segment).
    pub num_towers: usize,
    data: Matrix,
}

impl Embeddings {
    /// Embedding row of a tower.
    pub fn tower(&self, t: TowerId) -> &[f32] {
        self.data.row(t.idx())
    }

    /// Embedding row of a segment.
    pub fn segment(&self, s: SegmentId) -> &[f32] {
        self.data.row(self.num_towers + s.idx())
    }

    /// The full N×d embedding matrix (towers first).
    pub fn matrix(&self) -> &Matrix {
        &self.data
    }

    /// Cosine similarity between a tower and a segment embedding.
    pub fn tower_segment_similarity(&self, t: TowerId, s: SegmentId) -> f32 {
        cosine(self.tower(t), self.segment(s))
    }

    /// Serializes the embedding table.
    pub fn export_weights(&self, enc: &mut lhmm_neural::persist::Encoder) {
        enc.matrix(&self.data);
    }

    /// Loads an embedding table written by [`Self::export_weights`]; the
    /// shape must match this instance's.
    pub fn import_weights(
        &mut self,
        dec: &mut lhmm_neural::persist::Decoder<'_>,
    ) -> Result<(), lhmm_neural::persist::DecodeError> {
        let m = dec.matrix()?;
        if m.shape() != self.data.shape() {
            return Err(lhmm_neural::persist::DecodeError::ShapeMismatch);
        }
        self.data = m;
        Ok(())
    }
}

fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if lhmm_geo::exactly_zero_f32(na) || lhmm_geo::exactly_zero_f32(nb) {
        0.0
    } else {
        dot / (na * nb)
    }
}

struct EncoderModel {
    store: ParamStore,
    h0: lhmm_neural::tape::ParamId,
    // Heterogeneous: per-layer, per-relation weights + self weight; shared
    // aggregation weight.
    rel_weights: Vec<Vec<Linear>>, // [layer][relation]
    self_weights: Vec<Linear>,     // [layer]
    agg: Option<Linear>,
    mlp_proj: Option<Linear>, // MlpEmbedding variant
    kind: EncoderKind,
    adj: Vec<Rc<SparseMatrix>>, // per relation (or merged for homogeneous)
}

impl EncoderModel {
    fn new(graph: &MultiRelGraph, cfg: &EncoderConfig, rng: &mut StdRng) -> Self {
        let n = graph.num_nodes();
        let d = cfg.dim;
        let mut store = ParamStore::new();
        let h0 = store.alloc(init::xavier_uniform(n, d, rng));

        let mut rel_weights = Vec::new();
        let mut self_weights = Vec::new();
        let mut agg = None;
        let mut mlp_proj = None;
        let adj: Vec<Rc<SparseMatrix>>;

        match cfg.kind {
            EncoderKind::Heterogeneous => {
                adj = RELATIONS
                    .iter()
                    .map(|&r| Rc::new(normalized_adjacency(graph, &[r])))
                    .collect();
                for _ in 0..cfg.layers {
                    rel_weights.push(
                        (0..RELATIONS.len())
                            .map(|_| Linear::new_no_bias(&mut store, d, d, rng))
                            .collect(),
                    );
                    self_weights.push(Linear::new_no_bias(&mut store, d, d, rng));
                }
                agg = Some(Linear::new_no_bias(&mut store, d, d, rng));
            }
            EncoderKind::Homogeneous => {
                adj = vec![Rc::new(normalized_adjacency(graph, &RELATIONS))];
                for _ in 0..cfg.layers {
                    rel_weights.push(vec![Linear::new_no_bias(&mut store, d, d, rng)]);
                    self_weights.push(Linear::new_no_bias(&mut store, d, d, rng));
                }
            }
            EncoderKind::MlpEmbedding => {
                adj = Vec::new();
                mlp_proj = Some(Linear::new(&mut store, d, d, rng));
            }
        }

        EncoderModel {
            store,
            h0,
            rel_weights,
            self_weights,
            agg,
            mlp_proj,
            kind: cfg.kind,
            adj,
        }
    }

    /// Full-graph forward pass; returns the final N×d node states.
    fn forward(&self, tape: &mut Tape) -> Var {
        let mut h = tape.param(&self.store, self.h0);
        match self.kind {
            EncoderKind::MlpEmbedding => {
                // `new` always builds the projection for this kind; if the
                // invariant is ever broken, degrade to the raw embedding
                // table rather than panic.
                match self.mlp_proj.as_ref() {
                    Some(proj) => {
                        let z = proj.forward(tape, &self.store, h);
                        tape.tanh(z)
                    }
                    None => h,
                }
            }
            EncoderKind::Heterogeneous => {
                let h0 = h;
                for l in 0..self.rel_weights.len() {
                    // Eq. 4: z_rel = mean over relation neighbors of W_rel h.
                    let mut msg: Option<Var> = None;
                    for (r, w_rel) in self.rel_weights[l].iter().enumerate() {
                        let hw = w_rel.forward(tape, &self.store, h);
                        let z = tape.spmm(&self.adj[r], hw);
                        msg = Some(match msg {
                            Some(m) => tape.add(m, z),
                            None => z,
                        });
                    }
                    // Eq. 5: h' = relu(W_agg Σ z_rel + W_0 h). A layer
                    // with no relations or a missing aggregator (broken
                    // construction invariant) stops message passing early
                    // instead of panicking.
                    let (Some(m), Some(agg)) = (msg, self.agg.as_ref()) else {
                        break;
                    };
                    let ma = agg.forward(tape, &self.store, m);
                    let hs = self.self_weights[l].forward(tape, &self.store, h);
                    let s = tape.add(ma, hs);
                    h = tape.relu(s);
                }
                // Residual to the initial table: q rounds of ReLU message
                // passing over-smooth node identity (adjacent nodes converge
                // to similar vectors), which hurts the downstream point-road
                // discrimination; the skip connection keeps both views.
                tape.add(h, h0)
            }
            EncoderKind::Homogeneous => {
                for l in 0..self.rel_weights.len() {
                    let hw = self.rel_weights[l][0].forward(tape, &self.store, h);
                    let z = tape.spmm(&self.adj[0], hw);
                    let hs = self.self_weights[l].forward(tape, &self.store, h);
                    let s = tape.add(z, hs);
                    h = tape.relu(s);
                }
                h
            }
        }
    }
}

/// Row-normalized incoming adjacency over the union of the given relations.
fn normalized_adjacency(graph: &MultiRelGraph, rels: &[Relation]) -> SparseMatrix {
    let n = graph.num_nodes();
    let mut rows: Vec<Vec<(u32, f32)>> = vec![Vec::new(); n];
    for &rel in rels {
        for (dst, neighbors) in graph.adjacency(rel).iter().enumerate() {
            rows[dst].extend_from_slice(neighbors);
        }
    }
    let mut sp = SparseMatrix::from_rows(n, n, &rows);
    sp.row_normalize();
    sp
}

/// Trains an encoder on the graph and returns frozen embeddings.
pub fn train_encoder(graph: &MultiRelGraph, cfg: &EncoderConfig) -> Embeddings {
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0xEC0DE));
    let model = EncoderModel::new(graph, cfg, &mut rng);
    train_model(graph, cfg, model, &mut rng)
}

fn train_model(
    graph: &MultiRelGraph,
    cfg: &EncoderConfig,
    mut model: EncoderModel,
    rng: &mut StdRng,
) -> Embeddings {
    // Pre-collect positive edges per relation.
    let edge_sets: Vec<Vec<(u32, u32)>> = RELATIONS
        .iter()
        .map(|&r| {
            graph
                .edges(r)
                .into_iter()
                .map(|(s, d, _)| (s, d))
                .collect()
        })
        .collect();
    let total_edges: usize = edge_sets.iter().map(Vec::len).sum();
    assert!(total_edges > 0, "graph has no edges to train on");

    let n = graph.num_nodes() as u32;
    let mut opt = Adam::new(cfg.lr, 1e-4);
    // The frozen embeddings outlive training, so their buffer is allocated
    // before the tape's arena: when the arena is freed, nothing long-lived
    // sits above it and the allocator can return the memory.
    let mut frozen = Matrix::zeros(graph.num_nodes(), cfg.dim);
    // One tape for the whole run: every epoch records the same shapes, so
    // after the first its arena serves every buffer.
    let mut tape = Tape::new();

    for _ in 0..cfg.epochs {
        // Sample a mixed batch of positive edges proportional to relation
        // sizes, plus uniform negatives.
        let mut srcs = Vec::with_capacity(cfg.batch_edges * (1 + cfg.neg_per_pos));
        let mut dsts = Vec::with_capacity(srcs.capacity());
        let mut targets = Vec::with_capacity(srcs.capacity());
        for _ in 0..cfg.batch_edges {
            let mut pick = rng.gen_range(0..total_edges);
            let mut chosen = None;
            for set in &edge_sets {
                if pick < set.len() {
                    chosen = Some(set[pick]);
                    break;
                }
                pick -= set.len();
            }
            // `pick < total_edges` = Σ set lens, so a miss is impossible;
            // skip the draw rather than panic if the count ever drifts.
            let Some((s, d)) = chosen else { continue };
            srcs.push(s as usize);
            dsts.push(d as usize);
            targets.push(1.0f32);
            for _ in 0..cfg.neg_per_pos {
                srcs.push(s as usize);
                dsts.push(rng.gen_range(0..n) as usize);
                targets.push(0.0);
            }
        }

        tape.reset();
        let h = model.forward(&mut tape);
        let hs = tape.gather_rows(h, &srcs);
        let hd = tape.gather_rows(h, &dsts);
        let prod = tape.mul(hs, hd);
        let ones = tape.constant(Matrix::full(cfg.dim, 1, 1.0));
        let logits = tape.matmul(prod, ones); // batch×1 dot products
        let target_m = Matrix::col_vector(targets);
        let (_, grad) = bce_with_logits(tape.value(logits), &target_m, 0.0);
        tape.backward(logits, &grad);
        let pg = tape.param_grads();
        clip_grad_norm(pg, 5.0);
        opt.step(&mut model.store, pg);
    }

    // Extract frozen embeddings with a final forward pass.
    tape.reset();
    let h = model.forward(&mut tape);
    frozen.data_mut().copy_from_slice(tape.value(h).data());
    Embeddings {
        dim: cfg.dim,
        num_towers: graph.num_towers,
        data: frozen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhmm_cellsim::dataset::{Dataset, DatasetConfig};

    fn setup() -> (Dataset, MultiRelGraph) {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(31));
        let g = MultiRelGraph::build(&ds.network, ds.towers.len(), &ds.train);
        (ds, g)
    }

    fn small_cfg(kind: EncoderKind) -> EncoderConfig {
        EncoderConfig {
            dim: 16,
            epochs: 40,
            batch_edges: 256,
            kind,
            ..Default::default()
        }
    }

    #[test]
    fn training_produces_finite_embeddings_of_right_shape() {
        let (ds, g) = setup();
        let emb = train_encoder(&g, &small_cfg(EncoderKind::Heterogeneous));
        assert_eq!(emb.matrix().rows(), g.num_nodes());
        assert_eq!(emb.matrix().cols(), 16);
        assert!(emb.matrix().is_finite());
        assert_eq!(emb.tower(TowerId(0)).len(), 16);
        assert_eq!(emb.segment(SegmentId(0)).len(), 16);
        assert_eq!(emb.num_towers, ds.towers.len());
    }

    #[test]
    fn co_linked_pairs_score_higher_than_random() {
        let (ds, g) = setup();
        let emb = train_encoder(&g, &small_cfg(EncoderKind::Heterogeneous));
        // Average similarity of CO-linked (tower, segment) pairs vs random pairs.
        let mut linked = Vec::new();
        for t in 0..ds.towers.len() as u32 {
            for (s, _) in g.co_segments(TowerId(t)) {
                linked.push(emb.tower_segment_similarity(TowerId(t), s));
            }
        }
        assert!(!linked.is_empty());
        let linked_mean: f32 = linked.iter().sum::<f32>() / linked.len() as f32;
        let mut rng = StdRng::seed_from_u64(5);
        let rand_mean: f32 = (0..500)
            .map(|_| {
                let t = TowerId(rng.gen_range(0..ds.towers.len() as u32));
                let s = SegmentId(rng.gen_range(0..ds.network.num_segments() as u32));
                emb.tower_segment_similarity(t, s)
            })
            .sum::<f32>()
            / 500.0;
        assert!(
            linked_mean > rand_mean + 0.05,
            "linked {linked_mean} vs random {rand_mean}"
        );
    }

    #[test]
    fn all_variants_train() {
        let (_, g) = setup();
        for kind in [
            EncoderKind::Heterogeneous,
            EncoderKind::Homogeneous,
            EncoderKind::MlpEmbedding,
        ] {
            let emb = train_encoder(&g, &small_cfg(kind));
            assert!(emb.matrix().is_finite(), "{kind:?} diverged");
        }
    }

    #[test]
    fn training_is_deterministic() {
        let (_, g) = setup();
        let a = train_encoder(&g, &small_cfg(EncoderKind::Heterogeneous));
        let b = train_encoder(&g, &small_cfg(EncoderKind::Heterogeneous));
        assert_eq!(a.matrix(), b.matrix());
    }

    #[test]
    fn adjacent_segments_are_similar_under_tp() {
        let (ds, g) = setup();
        let emb = train_encoder(&g, &small_cfg(EncoderKind::Heterogeneous));
        // Adjacent segments should be more similar than random segment pairs
        // on average (TP relation + shared neighborhoods).
        let mut adj_sims = Vec::new();
        for s in ds.network.segment_ids().take(300) {
            for &succ in ds.network.successors(s) {
                if succ != s {
                    adj_sims.push(cosine(emb.segment(s), emb.segment(succ)));
                }
            }
        }
        let adj_mean: f32 = adj_sims.iter().sum::<f32>() / adj_sims.len() as f32;
        let mut rng = StdRng::seed_from_u64(6);
        let rand_mean: f32 = (0..500)
            .map(|_| {
                let a = SegmentId(rng.gen_range(0..ds.network.num_segments() as u32));
                let b = SegmentId(rng.gen_range(0..ds.network.num_segments() as u32));
                cosine(emb.segment(a), emb.segment(b))
            })
            .sum::<f32>()
            / 500.0;
        assert!(
            adj_mean > rand_mean,
            "adjacent {adj_mean} vs random {rand_mean}"
        );
    }
}
