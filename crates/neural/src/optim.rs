//! Adam optimizer with decoupled weight decay.
//!
//! The paper trains with Adam, learning rate `1e-3` and weight decay `1e-4`
//! (Section V-A2); those are this type's defaults.

use crate::matrix::Matrix;
use crate::tape::{ParamId, ParamStore};

/// Adam optimizer state (step counter + hyperparameters). Moment estimates
/// live next to the parameters inside [`ParamStore`].
#[derive(Clone, Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical stabilizer.
    pub epsilon: f32,
    /// Decoupled weight decay coefficient.
    pub weight_decay: f32,
    step: u64,
}

impl Default for Adam {
    fn default() -> Self {
        Adam {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            weight_decay: 1e-4,
            step: 0,
        }
    }
}

impl Adam {
    /// Creates an optimizer with the paper's hyperparameters.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Adam {
            lr,
            weight_decay,
            ..Adam::default()
        }
    }

    /// Number of completed steps.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Applies one update for the given `(param, gradient)` pairs.
    pub fn step(&mut self, store: &mut ParamStore, grads: &[(ParamId, Matrix)]) {
        self.step += 1;
        let t = self.step as f32;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        for (pid, grad) in grads {
            let (value, m, v) = store.adam_slots(*pid);
            debug_assert_eq!(
                value.shape(),
                grad.shape(),
                "gradient shape mismatch for param {}",
                pid.0
            );
            let moments = m.data_mut().iter_mut().zip(v.data_mut());
            for ((w, (m, v)), &g) in value.data_mut().iter_mut().zip(moments).zip(grad.data()) {
                *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                let m_hat = *m / bias1;
                *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
                let v_hat = *v / bias2;
                // Decoupled weight decay (AdamW).
                *w -= self.lr * (m_hat / (v_hat.sqrt() + self.epsilon) + self.weight_decay * *w);
            }
        }
    }
}

/// Clips gradients to a maximum global L2 norm; returns the pre-clip norm.
pub fn clip_grad_norm(grads: &mut [(ParamId, Matrix)], max_norm: f32) -> f32 {
    let total: f32 = grads
        .iter()
        .map(|(_, g)| g.data().iter().map(|x| x * x).sum::<f32>())
        .sum::<f32>()
        .sqrt();
    if total > max_norm && total > 0.0 {
        let scale = max_norm / total;
        for (_, g) in grads.iter_mut() {
            for x in g.data_mut() {
                *x *= scale;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse;
    use crate::tape::Tape;

    /// Adam must drive a simple quadratic to its minimum.
    #[test]
    fn adam_minimizes_quadratic() {
        let mut store = ParamStore::new();
        let w = store.alloc(Matrix::row_vector(vec![5.0, -3.0]));
        let target = Matrix::row_vector(vec![1.0, 2.0]);
        let mut opt = Adam::new(0.05, 0.0);
        let mut tape = Tape::new();
        for _ in 0..500 {
            tape.reset();
            let wv = tape.param(&store, w);
            let (_, grad) = mse(tape.value(wv), &target);
            tape.backward(wv, &grad);
            opt.step(&mut store, tape.param_grads());
        }
        let final_w = store.value(w);
        assert!((final_w.data()[0] - 1.0).abs() < 1e-2, "{final_w:?}");
        assert!((final_w.data()[1] - 2.0).abs() < 1e-2, "{final_w:?}");
        assert_eq!(opt.steps(), 500);
    }

    /// Weight decay pulls unused weights toward zero.
    #[test]
    fn weight_decay_shrinks_params() {
        let mut store = ParamStore::new();
        let w = store.alloc(Matrix::row_vector(vec![1.0]));
        let mut opt = Adam::new(0.01, 0.5);
        for _ in 0..200 {
            // Zero gradient: only decay acts.
            let grads = vec![(w, Matrix::zeros(1, 1))];
            opt.step(&mut store, &grads);
        }
        assert!(store.value(w).data()[0].abs() < 0.5);
    }

    #[test]
    fn clip_rescales_large_gradients() {
        let mut store = ParamStore::new();
        let w = store.alloc(Matrix::row_vector(vec![0.0]));
        let mut grads = vec![(w, Matrix::row_vector(vec![3.0, 4.0]))];
        let norm = clip_grad_norm(&mut grads, 1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        let clipped: f32 = grads[0]
            .1
            .data()
            .iter()
            .map(|x| x * x)
            .sum::<f32>()
            .sqrt();
        assert!((clipped - 1.0).abs() < 1e-6);
        // Small gradients pass through untouched.
        let mut small = vec![(w, Matrix::row_vector(vec![0.1]))];
        clip_grad_norm(&mut small, 1.0);
        assert_eq!(small[0].1.data(), &[0.1]);
    }
}
