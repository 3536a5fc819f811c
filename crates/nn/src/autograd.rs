//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Var`] is a cheap, clonable handle (`Arc<…>`) to a node in a
//! dynamically constructed computation graph. Differentiable operations
//! return new `Var`s that remember their parents and a backward closure;
//! [`Var::backward`] runs the closures in reverse topological order.
//!
//! Recording is conditional. An op records its parents and builds its
//! backward closure only when some parent requires a gradient and the
//! thread is not inside [`no_grad`]; otherwise it returns a leaf that
//! holds just its value. Every op computes its value from borrowed
//! operands, and the closure's captures (one copy of each tensor the
//! backward reads) are made only when the op records, so an inference
//! pass costs its kernels and nothing more. Values do not depend on
//! whether an op records: both paths run the same [`Tensor`] op on the
//! same operands.
//!
//! `Var` is `Send + Sync`, so one model's weights can be read from
//! several threads at once (the DDIM sampler runs the two passes of a
//! guided step side by side). A node's identity, parents and backward
//! closure never change after creation and sit outside any lock. So does
//! an interior node's value: only a leaf's value can be rewritten (by
//! [`Var::assign`]), so only leaves keep theirs under an `RwLock`. The
//! gradient slot is a `Mutex`. A graph is still built and differentiated
//! by one thread; [`no_grad`] is per thread.

use aero_tensor::Tensor;
use std::cell::Cell;
use std::collections::HashSet;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};

static NEXT_ID: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether ops on this thread record the tape; [`no_grad`] clears it
    /// for the length of a scope.
    static RECORDING: Cell<bool> = const { Cell::new(true) };
}

/// Runs `f` with tape recording off on the current thread.
///
/// Inside the scope every op returns a leaf with
/// [`requires_grad`](Var::requires_grad) `== false` and no parents, even
/// on parameter inputs, and builds no backward closure. The previous
/// state is restored on exit, including on panic, so scopes nest. It is
/// a scope, not a setting: values are bit-identical to a recording pass,
/// which runs the same [`Tensor`] ops.
pub fn no_grad<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            RECORDING.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(RECORDING.with(|c| c.replace(false)));
    f()
}

type BackwardFn = Box<dyn Fn(&Tensor) -> Vec<Tensor> + Send + Sync>;

/// Where a node keeps its value: fixed at creation for interior nodes,
/// rewritable (by [`Var::assign`]) for leaves.
enum Value {
    Fixed(Tensor),
    Leaf(RwLock<Tensor>),
}

struct Node {
    id: usize,
    /// Name of the operation that produced this node (`"parameter"`,
    /// `"constant"`, `"detach"`, or the method name for interior ops).
    /// Consumed by `aero-analysis` when linting a built graph.
    op: &'static str,
    value: Value,
    grad: Mutex<Option<Tensor>>,
    parents: Vec<Var>,
    backward: Option<BackwardFn>,
    requires_grad: bool,
}

impl Node {
    /// Locks the gradient slot. A panic while it was held (a shape
    /// mismatch in an accumulation) left it holding a whole value or
    /// `None`, so the guard is recovered from poisoning.
    fn grad(&self) -> MutexGuard<'_, Option<Tensor>> {
        self.grad.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A node in the autograd graph.
///
/// Cloning a `Var` clones the *handle*, not the data: both handles refer
/// to the same node and share its gradient. Leaf nodes are created with
/// [`Var::parameter`] (trainable) or [`Var::constant`] (frozen); interior
/// nodes are created by the operation methods.
#[derive(Clone)]
pub struct Var {
    inner: Arc<Node>,
}

/// A borrowed node value, returned by [`Var::value`]. Derefs to the
/// [`Tensor`]; a leaf's value stays read-locked while this lives, so
/// drop it before [`Var::assign`] on the same node.
pub struct ValueRef<'a>(ValueBorrow<'a>);

enum ValueBorrow<'a> {
    Fixed(&'a Tensor),
    Leaf(RwLockReadGuard<'a, Tensor>),
}

impl Deref for ValueRef<'_> {
    type Target = Tensor;

    fn deref(&self) -> &Tensor {
        match &self.0 {
            ValueBorrow::Fixed(t) => t,
            ValueBorrow::Leaf(g) => g,
        }
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let node = &self.inner;
        f.debug_struct("Var")
            .field("id", &node.id)
            .field("shape", &self.value().shape())
            .field("requires_grad", &node.requires_grad)
            .field("has_grad", &node.grad().is_some())
            .finish()
    }
}

/// Runs `f` on the values of `a` and `b`, taking one guard when both are
/// the same node: `x.mul(&x)` reads one node twice, and std allows a
/// second read lock on a lock the thread already holds to panic.
fn with_pair<R>(a: &Var, b: &Var, f: impl FnOnce(&Tensor, &Tensor) -> R) -> R {
    let va = a.value();
    if a.same_node(b) {
        f(&va, &va)
    } else {
        f(&va, &b.value())
    }
}

/// [`with_pair`] plus an optional third operand (a convolution's bias),
/// still one guard per distinct node and no allocation.
fn with_triple<R>(
    a: &Var,
    b: &Var,
    c: Option<&Var>,
    f: impl FnOnce(&Tensor, &Tensor, Option<&Tensor>) -> R,
) -> R {
    with_pair(a, b, |va, vb| match c {
        None => f(va, vb, None),
        Some(c) if c.same_node(a) => f(va, vb, Some(va)),
        Some(c) if c.same_node(b) => f(va, vb, Some(vb)),
        Some(c) => f(va, vb, Some(&c.value())),
    })
}

/// [`with_pair`] over any number of vars: one guard per distinct node.
fn with_values<R>(vars: &[&Var], f: impl FnOnce(&[&Tensor]) -> R) -> R {
    let first = |i: usize| vars[..i].iter().position(|u| u.same_node(vars[i])).unwrap_or(i);
    let guards: Vec<Option<ValueRef<'_>>> =
        (0..vars.len()).map(|i| (first(i) == i).then(|| vars[i].value())).collect();
    let values: Vec<&Tensor> = (0..vars.len())
        .map(|i| &**guards[first(i)].as_ref().expect("first occurrence holds the guard"))
        .collect();
    f(&values)
}

impl Var {
    // ------------------------------------------------------------ creation

    /// Creates a trainable leaf.
    pub fn parameter(value: Tensor) -> Self {
        Self::node(Value::Leaf(RwLock::new(value)), true, "parameter", Vec::new(), None)
    }

    /// Creates a frozen leaf that never receives gradients.
    pub fn constant(value: Tensor) -> Self {
        Self::node(Value::Leaf(RwLock::new(value)), false, "constant", Vec::new(), None)
    }

    fn node(
        value: Value,
        requires_grad: bool,
        op: &'static str,
        parents: Vec<Var>,
        backward: Option<BackwardFn>,
    ) -> Self {
        Var {
            inner: Arc::new(Node {
                // lint: relaxed-ok(ids need only be unique; the counter publishes no data)
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                op,
                value,
                grad: Mutex::new(None),
                parents,
                backward,
                requires_grad,
            }),
        }
    }

    /// An interior node holding `value`, the result of `op` on
    /// `parents`. It records the parents and the closure `backward`
    /// builds from the value only when some parent requires a gradient
    /// and the thread is not inside [`no_grad`]; otherwise `backward` is
    /// never called, so its captures are never copied.
    fn from_op(
        op: &'static str,
        value: Tensor,
        parents: &[&Var],
        backward: impl FnOnce(&Tensor) -> BackwardFn,
    ) -> Self {
        let record = RECORDING.with(Cell::get) && parents.iter().any(|p| p.requires_grad());
        if !record {
            return Self::node(Value::Fixed(value), false, op, Vec::new(), None);
        }
        let backward = backward(&value);
        let parents = parents.iter().map(|&p| p.clone()).collect();
        Self::node(Value::Fixed(value), true, op, parents, Some(backward))
    }

    // ----------------------------------------------------------- accessors

    /// Borrows the node's value.
    pub fn value(&self) -> ValueRef<'_> {
        ValueRef(match &self.inner.value {
            Value::Fixed(t) => ValueBorrow::Fixed(t),
            Value::Leaf(lock) => {
                ValueBorrow::Leaf(lock.read().unwrap_or_else(PoisonError::into_inner))
            }
        })
    }

    /// Clones the node's value tensor.
    pub fn to_tensor(&self) -> Tensor {
        self.value().clone()
    }

    /// The shape of the node's value.
    pub fn shape(&self) -> Vec<usize> {
        self.value().shape().to_vec()
    }

    /// Whether gradients flow into this node.
    pub fn requires_grad(&self) -> bool {
        self.inner.requires_grad
    }

    /// The accumulated gradient, if any.
    pub fn grad(&self) -> Option<Tensor> {
        self.inner.grad().clone()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.inner.grad() = None;
    }

    /// Overwrites the accumulated gradient (used by gradient clipping:
    /// the training guard rescales stored gradients in place before the
    /// optimizer consumes them).
    ///
    /// # Panics
    ///
    /// Panics if the gradient's shape differs from the value's shape.
    pub fn set_grad(&self, grad: Tensor) {
        assert_eq!(self.value().shape(), grad.shape(), "set_grad must preserve shape");
        *self.inner.grad() = Some(grad);
    }

    /// Overwrites the value of a leaf (used by optimizers).
    ///
    /// # Panics
    ///
    /// Panics if the new value's shape differs from the old one, or if
    /// this is an interior node (their values are fixed at creation).
    pub fn assign(&self, value: Tensor) {
        let Value::Leaf(lock) = &self.inner.value else {
            panic!("assign rewrites leaves only; `{}` is an interior node", self.inner.op);
        };
        let mut slot = lock.write().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(slot.shape(), value.shape(), "assign must preserve shape");
        *slot = value;
    }

    /// A frozen copy of this node's current value, cut off from the graph.
    pub fn detach(&self) -> Var {
        Self::node(Value::Leaf(RwLock::new(self.to_tensor())), false, "detach", Vec::new(), None)
    }

    /// Unique id of this node within the process (monotonic per creation).
    pub fn id(&self) -> usize {
        self.inner.id
    }

    /// Whether `self` and `other` are handles on the same node.
    fn same_node(&self, other: &Var) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Name of the operation that produced this node.
    ///
    /// Leaves report `"parameter"`, `"constant"`, or `"detach"`; interior
    /// nodes report the producing method (`"matmul"`, `"ln"`, ...). This is
    /// the hook the `aero-analysis` graph linter walks.
    pub fn op(&self) -> &'static str {
        self.inner.op
    }

    /// Clones the parent handles of this node.
    ///
    /// Interior nodes whose inputs all had `requires_grad == false` drop
    /// their parents (nothing to backpropagate into), so a walk over
    /// `parents()` sees exactly the differentiable subgraph.
    pub fn parents(&self) -> Vec<Var> {
        self.inner.parents.clone()
    }

    /// Whether this node has no recorded parents (a leaf of the tape).
    pub fn is_leaf(&self) -> bool {
        self.inner.parents.is_empty()
    }

    // ------------------------------------------------------------ backward

    /// Back-propagates from a scalar output.
    ///
    /// Gradients accumulate (add) into any `grad` already present, so call
    /// [`Var::zero_grad`] (or `Module::zero_grad`) between steps.
    ///
    /// # Panics
    ///
    /// Panics if this node does not hold exactly one element.
    pub fn backward(&self) {
        let seed = {
            let value = self.value();
            assert_eq!(value.numel(), 1, "backward requires a scalar output");
            Tensor::ones(value.shape())
        };
        // Topological order via iterative DFS.
        let mut order: Vec<Var> = Vec::new();
        let mut visited: HashSet<usize> = HashSet::new();
        let mut stack: Vec<(Var, bool)> = vec![(self.clone(), false)];
        while let Some((var, processed)) = stack.pop() {
            if processed {
                order.push(var);
                continue;
            }
            if !visited.insert(var.id()) {
                continue;
            }
            stack.push((var.clone(), true));
            for p in &var.inner.parents {
                if p.requires_grad() && !visited.contains(&p.id()) {
                    stack.push((p.clone(), false));
                }
            }
        }
        accumulate(&self.inner, seed);
        for var in order.iter().rev() {
            let node = &var.inner;
            let Some(back) = &node.backward else { continue };
            // Interior gradients are freed as they are consumed; leaves
            // (no backward) keep theirs for the optimizer.
            let Some(grad) = node.grad().take() else { continue };
            let parent_grads = back(&grad);
            assert_eq!(parent_grads.len(), node.parents.len(), "backward arity mismatch");
            for (p, pg) in node.parents.iter().zip(parent_grads) {
                if p.requires_grad() {
                    debug_assert_eq!(p.value().shape(), pg.shape(), "gradient shape mismatch");
                    accumulate(&p.inner, pg);
                }
            }
        }
    }

    // ----------------------------------------------------- elementwise ops

    /// Broadcasting elementwise addition.
    pub fn add(&self, other: &Var) -> Var {
        let out = with_pair(self, other, Tensor::add);
        Var::from_op("add", out, &[self, other], |_| {
            let (sa, sb) = (self.shape(), other.shape());
            Box::new(move |g| vec![unbroadcast(g, &sa), unbroadcast(g, &sb)])
        })
    }

    /// Broadcasting elementwise subtraction.
    pub fn sub(&self, other: &Var) -> Var {
        let out = with_pair(self, other, Tensor::sub);
        Var::from_op("sub", out, &[self, other], |_| {
            let (sa, sb) = (self.shape(), other.shape());
            Box::new(move |g| vec![unbroadcast(g, &sa), unbroadcast(&g.neg(), &sb)])
        })
    }

    /// Broadcasting elementwise multiplication.
    pub fn mul(&self, other: &Var) -> Var {
        let out = with_pair(self, other, Tensor::mul);
        Var::from_op("mul", out, &[self, other], |_| {
            let (a, b) = (self.to_tensor(), other.to_tensor());
            let (sa, sb) = (a.shape().to_vec(), b.shape().to_vec());
            Box::new(move |g| vec![unbroadcast(&g.mul(&b), &sa), unbroadcast(&g.mul(&a), &sb)])
        })
    }

    /// Broadcasting elementwise division.
    pub fn div(&self, other: &Var) -> Var {
        let out = with_pair(self, other, Tensor::div);
        Var::from_op("div", out, &[self, other], |_| {
            let (a, b) = (self.to_tensor(), other.to_tensor());
            let (sa, sb) = (a.shape().to_vec(), b.shape().to_vec());
            Box::new(move |g| {
                let da = g.div(&b);
                let db = g.mul(&a).div(&b.mul(&b)).neg();
                vec![unbroadcast(&da, &sa), unbroadcast(&db, &sb)]
            })
        })
    }

    /// Multiplies every element by a constant.
    pub fn scale(&self, s: f32) -> Var {
        let out = self.value().mul_scalar(s);
        Var::from_op("scale", out, &[self], |_| Box::new(move |g| vec![g.mul_scalar(s)]))
    }

    /// Adds a constant to every element.
    pub fn add_scalar(&self, s: f32) -> Var {
        let out = self.value().add_scalar(s);
        Var::from_op("add_scalar", out, &[self], |_| Box::new(|g| vec![g.clone()]))
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Var {
        self.scale(-1.0)
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Var {
        let out = self.value().exp();
        Var::from_op("exp", out, &[self], |out| {
            let out = out.clone();
            Box::new(move |g| vec![g.mul(&out)])
        })
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Var {
        let out = self.value().ln();
        Var::from_op("ln", out, &[self], |_| {
            let x = self.to_tensor();
            Box::new(move |g| vec![g.div(&x)])
        })
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Var {
        let out = self.value().sqrt();
        Var::from_op("sqrt", out, &[self], |out| {
            let out = out.clone();
            Box::new(move |g| vec![g.div(&out.mul_scalar(2.0))])
        })
    }

    /// Elementwise power with a constant exponent.
    pub fn powf(&self, p: f32) -> Var {
        let out = self.value().powf(p);
        Var::from_op("powf", out, &[self], |_| {
            let x = self.to_tensor();
            Box::new(move |g| vec![g.mul(&x.powf(p - 1.0).mul_scalar(p))])
        })
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Var {
        let out = self.value().map(|v| v.max(0.0));
        Var::from_op("relu", out, &[self], |_| {
            let mask = self.value().map(|v| if v > 0.0 { 1.0 } else { 0.0 });
            Box::new(move |g| vec![g.mul(&mask)])
        })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        let out = self.value().map(|v| 1.0 / (1.0 + (-v).exp()));
        Var::from_op("sigmoid", out, &[self], |out| {
            let out = out.clone();
            Box::new(move |g| vec![g.mul(&out.map(|s| s * (1.0 - s)))])
        })
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        let out = self.value().map(f32::tanh);
        Var::from_op("tanh", out, &[self], |out| {
            let out = out.clone();
            Box::new(move |g| vec![g.mul(&out.map(|t| 1.0 - t * t))])
        })
    }

    /// SiLU (swish): `x * sigmoid(x)` — the UNet's activation.
    pub fn silu(&self) -> Var {
        let out = self.value().map(|v| v / (1.0 + (-v).exp()));
        Var::from_op("silu", out, &[self], |_| {
            let x = self.to_tensor();
            Box::new(move |g| {
                let d = x.map(|v| {
                    let s = 1.0 / (1.0 + (-v).exp());
                    s * (1.0 + v * (1.0 - s))
                });
                vec![g.mul(&d)]
            })
        })
    }

    /// Gaussian error linear unit (tanh approximation).
    pub fn gelu(&self) -> Var {
        const C: f32 = 0.797_884_6; // sqrt(2/pi)
        let out = self.value().map(|v| 0.5 * v * (1.0 + (C * (v + 0.044715 * v * v * v)).tanh()));
        Var::from_op("gelu", out, &[self], |_| {
            let x = self.to_tensor();
            Box::new(move |g| {
                let d = x.map(|v| {
                    let inner = C * (v + 0.044715 * v * v * v);
                    let t = inner.tanh();
                    let dinner = C * (1.0 + 3.0 * 0.044715 * v * v);
                    0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * dinner
                });
                vec![g.mul(&d)]
            })
        })
    }

    // ------------------------------------------------------- linear algebra

    /// Rank-2 matrix multiplication.
    ///
    /// # Panics
    ///
    /// Panics on rank or inner-dimension mismatch.
    pub fn matmul(&self, other: &Var) -> Var {
        let out = with_pair(self, other, Tensor::matmul);
        Var::from_op("matmul", out, &[self, other], |_| {
            let (a, b) = (self.to_tensor(), other.to_tensor());
            Box::new(move |g| vec![g.matmul(&b.transpose()), a.transpose().matmul(g)])
        })
    }

    /// Batched rank-3 matrix multiplication `[b, m, k] x [b, k, n]`.
    ///
    /// # Panics
    ///
    /// Panics on rank, batch, or inner-dimension mismatch.
    pub fn bmm(&self, other: &Var) -> Var {
        let out = with_pair(self, other, Tensor::bmm);
        Var::from_op("bmm", out, &[self, other], |_| {
            let (a, b) = (self.to_tensor(), other.to_tensor());
            Box::new(move |g| {
                let da = g.bmm(&b.permute(&[0, 2, 1]));
                let db = a.permute(&[0, 2, 1]).bmm(g);
                vec![da, db]
            })
        })
    }

    // ------------------------------------------------------- shape plumbing

    /// Reshapes, keeping data order.
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Var {
        let out = self.value().reshape(shape);
        Var::from_op("reshape", out, &[self], |_| {
            let old = self.shape();
            Box::new(move |g| vec![g.reshape(&old)])
        })
    }

    /// Permutes axes.
    ///
    /// # Panics
    ///
    /// Panics unless `axes` is a permutation of `0..rank`.
    pub fn permute(&self, axes: &[usize]) -> Var {
        let out = self.value().permute(axes);
        Var::from_op("permute", out, &[self], |_| {
            let mut inverse = vec![0usize; axes.len()];
            for (i, &a) in axes.iter().enumerate() {
                inverse[a] = i;
            }
            Box::new(move |g| vec![g.permute(&inverse)])
        })
    }

    /// Selects a contiguous range along an axis.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the axis.
    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Var {
        let out = self.value().narrow(axis, start, len);
        Var::from_op("narrow", out, &[self], |_| {
            let full = self.shape();
            Box::new(move |g| {
                // Scatter the slice gradient back into a zero tensor.
                let mut out = Tensor::zeros(&full);
                let outer: usize = full[..axis].iter().product();
                let inner: usize = full[axis + 1..].iter().product();
                let dst = out.as_mut_slice();
                let src = g.as_slice();
                for o in 0..outer {
                    let dbase = o * full[axis] * inner + start * inner;
                    let sbase = o * len * inner;
                    dst[dbase..dbase + len * inner]
                        .copy_from_slice(&src[sbase..sbase + len * inner]);
                }
                vec![out]
            })
        })
    }

    /// Concatenates along an axis.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is empty or off-axis shapes differ.
    pub fn concat(vars: &[&Var], axis: usize) -> Var {
        assert!(!vars.is_empty(), "concat requires at least one var");
        let out = with_values(vars, |values| Tensor::concat(values, axis));
        Var::from_op("concat", out, vars, |_| {
            let lens: Vec<usize> = vars.iter().map(|v| v.shape()[axis]).collect();
            Box::new(move |g| {
                let mut grads = Vec::with_capacity(lens.len());
                let mut start = 0;
                for &len in &lens {
                    grads.push(g.narrow(axis, start, len));
                    start += len;
                }
                grads
            })
        })
    }

    /// Selects rows along axis 0 (embedding lookup); gradient scatter-adds.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn index_select0(&self, indices: &[usize]) -> Var {
        let out = self.value().index_select(0, indices);
        Var::from_op("index_select0", out, &[self], |_| {
            let full = self.shape();
            let idx = indices.to_vec();
            Box::new(move |g| {
                let mut out = Tensor::zeros(&full);
                let row: usize = full[1..].iter().product();
                let dst = out.as_mut_slice();
                let src = g.as_slice();
                for (k, &i) in idx.iter().enumerate() {
                    for j in 0..row {
                        dst[i * row + j] += src[k * row + j];
                    }
                }
                vec![out]
            })
        })
    }

    // ---------------------------------------------------------- reductions

    /// Sum of all elements (rank-0 result).
    pub fn sum(&self) -> Var {
        let out = Tensor::scalar(self.value().sum());
        Var::from_op("sum", out, &[self], |_| {
            let shape = self.shape();
            Box::new(move |g| vec![Tensor::full(&shape, g.item())])
        })
    }

    /// Mean of all elements (rank-0 result).
    pub fn mean(&self) -> Var {
        let n = self.value().numel() as f32;
        self.sum().scale(1.0 / n)
    }

    /// Sum along an axis, keeping it with size 1.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of bounds.
    pub fn sum_axis_keepdim(&self, axis: usize) -> Var {
        let full = self.shape();
        let mut kept = full.clone();
        kept[axis] = 1;
        let out = self.value().sum_axis(axis).reshape(&kept);
        Var::from_op("sum_axis_keepdim", out, &[self], |_| {
            Box::new(move |g| vec![g.broadcast_to(&full)])
        })
    }

    /// Mean along an axis, keeping it with size 1.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of bounds.
    pub fn mean_axis_keepdim(&self, axis: usize) -> Var {
        let n = self.shape()[axis] as f32;
        self.sum_axis_keepdim(axis).scale(1.0 / n)
    }

    /// Numerically stable softmax along the last axis.
    ///
    /// # Panics
    ///
    /// Panics on a rank-0 tensor.
    pub fn softmax_last_axis(&self) -> Var {
        let out = self.value().softmax_last_axis();
        Var::from_op("softmax_last_axis", out, &[self], |out| {
            let out = out.clone();
            let last = *out.shape().last().expect("softmax needs rank >= 1");
            Box::new(move |g| {
                // dx = s ⊙ (g − Σ(g ⊙ s)) per row
                let mut dx = g.mul(&out);
                let sums: Vec<f32> = dx.as_slice().chunks(last).map(|r| r.iter().sum()).collect();
                let data = dx.as_mut_slice();
                for (row_idx, row) in data.chunks_mut(last).enumerate() {
                    for v in row.iter_mut() {
                        *v = -sums[row_idx];
                    }
                }
                let centered = g.add(&dx);
                vec![centered.mul(&out)]
            })
        })
    }

    // -------------------------------------------------------- convolutions

    /// 2-D convolution; see [`Tensor::conv2d`] for shape conventions.
    ///
    /// # Panics
    ///
    /// Panics on rank or channel mismatch.
    pub fn conv2d(&self, weight: &Var, bias: Option<&Var>, stride: usize, pad: usize) -> Var {
        let out = with_triple(self, weight, bias, |x, w, b| x.conv2d(w, b, stride, pad));
        let parents: &[&Var] = match bias {
            Some(b) => &[self, weight, b],
            None => &[self, weight],
        };
        Var::from_op("conv2d", out, parents, |_| {
            let (x, w) = (self.to_tensor(), weight.to_tensor());
            let has_bias = bias.is_some();
            Box::new(move |g| {
                let (cout, cin, kh, kw) = (w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]);
                let n = x.shape()[0];
                let (oh, ow) = (g.shape()[2], g.shape()[3]);
                // dX = adjoint conv, computed via col2im with the *known* input
                // geometry (conv_transpose2d would infer an ambiguous size when
                // stride does not divide the padded input exactly).
                let wmat_t = w.reshape(&[cout, cin * kh * kw]).transpose();
                let mut dcols = Tensor::zeros(&[n, cin * kh * kw, oh * ow]);
                for bi in 0..n {
                    let g_b = g.narrow(0, bi, 1).reshape(&[cout, oh * ow]);
                    let d_b = wmat_t.matmul(&g_b);
                    let len = cin * kh * kw * oh * ow;
                    dcols.as_mut_slice()[bi * len..(bi + 1) * len].copy_from_slice(d_b.as_slice());
                }
                let dx = dcols.col2im(x.shape(), kh, kw, stride, pad);
                // dW: accumulate g_b [cout, oh*ow] @ cols_b^T [oh*ow, cin*kh*kw].
                let cols = x.im2col(kh, kw, stride, pad);
                let mut dw = Tensor::zeros(&[cout, cin * kh * kw]);
                for bi in 0..n {
                    let g_b = g.narrow(0, bi, 1).reshape(&[cout, oh * ow]);
                    let col_b = cols.narrow(0, bi, 1).reshape(&[cin * kh * kw, oh * ow]);
                    dw = dw.add(&g_b.matmul(&col_b.transpose()));
                }
                let dw = dw.reshape(&[cout, cin, kh, kw]);
                let mut grads = vec![dx, dw];
                if has_bias {
                    // db = sum over batch and spatial dims.
                    let db = g.sum_axis(3).sum_axis(2).sum_axis(0);
                    grads.push(db);
                }
                grads
            })
        })
    }

    /// Transposed 2-D convolution; see [`Tensor::conv_transpose2d`].
    ///
    /// # Panics
    ///
    /// Panics on rank or channel mismatch.
    pub fn conv_transpose2d(
        &self,
        weight: &Var,
        bias: Option<&Var>,
        stride: usize,
        pad: usize,
    ) -> Var {
        let out = with_triple(self, weight, bias, |x, w, b| x.conv_transpose2d(w, b, stride, pad));
        let parents: &[&Var] = match bias {
            Some(b) => &[self, weight, b],
            None => &[self, weight],
        };
        Var::from_op("conv_transpose2d", out, parents, |_| {
            let (x, w) = (self.to_tensor(), weight.to_tensor());
            let has_bias = bias.is_some();
            Box::new(move |g| {
                let (cin, cout, kh, kw) = (w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]);
                let n = x.shape()[0];
                let (h, w_sp) = (x.shape()[2], x.shape()[3]);
                // conv_transpose is the adjoint of conv2d with the same buffer,
                // so its input gradient is the forward conv2d.
                let dx = g.conv2d(&w, None, stride, pad);
                // dW: out = col2im(W_mat^T x) ⇒ dW_mat = Σ_b x_b @ im2col(g)_b^T.
                let gcols = g.im2col(kh, kw, stride, pad); // [n, cout*kh*kw, h*w]
                let mut dw = Tensor::zeros(&[cin, cout * kh * kw]);
                for bi in 0..n {
                    let x_b = x.narrow(0, bi, 1).reshape(&[cin, h * w_sp]);
                    let gc_b = gcols.narrow(0, bi, 1).reshape(&[cout * kh * kw, h * w_sp]);
                    dw = dw.add(&x_b.matmul(&gc_b.transpose()));
                }
                let dw = dw.reshape(&[cin, cout, kh, kw]);
                let mut grads = vec![dx, dw];
                if has_bias {
                    let db = g.sum_axis(3).sum_axis(2).sum_axis(0);
                    grads.push(db);
                }
                grads
            })
        })
    }

    /// Average pooling with square window `k`, stride `k`.
    ///
    /// # Panics
    ///
    /// Panics unless spatial dims divide by `k`.
    pub fn avg_pool2d(&self, k: usize) -> Var {
        let out = self.value().avg_pool2d(k);
        Var::from_op("avg_pool2d", out, &[self], |_| {
            let in_shape = self.shape();
            Box::new(move |g| {
                let (n, c, oh, ow) = (g.shape()[0], g.shape()[1], g.shape()[2], g.shape()[3]);
                let mut dx = Tensor::zeros(&in_shape);
                let (h, w) = (in_shape[2], in_shape[3]);
                let inv = 1.0 / (k * k) as f32;
                let src = g.as_slice();
                let dst = dx.as_mut_slice();
                for b in 0..n {
                    for ch in 0..c {
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let gv = src[((b * c + ch) * oh + oy) * ow + ox] * inv;
                                for ky in 0..k {
                                    for kx in 0..k {
                                        dst[((b * c + ch) * h + oy * k + ky) * w + ox * k + kx] +=
                                            gv;
                                    }
                                }
                            }
                        }
                    }
                }
                vec![dx]
            })
        })
    }

    /// Nearest-neighbour 2× upsampling.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is rank-4.
    pub fn upsample_nearest2x(&self) -> Var {
        let out = self.value().upsample_nearest2x();
        Var::from_op("upsample_nearest2x", out, &[self], |_| {
            // Gradient of nearest-2x is the sum over each 2×2 cell.
            Box::new(|g| vec![g.avg_pool2d(2).mul_scalar(4.0)])
        })
    }

    // ------------------------------------------------------------- losses

    /// Mean-squared-error loss against a constant target.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mse_loss(&self, target: &Tensor) -> Var {
        assert_eq!(self.shape(), target.shape(), "mse_loss shape mismatch");
        let t = Var::constant(target.clone());
        let diff = self.sub(&t);
        diff.mul(&diff).mean()
    }
}

/// Adds `g` into `node`'s gradient slot.
fn accumulate(node: &Node, g: Tensor) {
    let mut slot = node.grad();
    *slot = Some(match slot.take() {
        Some(acc) => acc.add(&g),
        None => g,
    });
}

/// Reduces a gradient over axes that were broadcast during the forward op.
fn unbroadcast(grad: &Tensor, target_shape: &[usize]) -> Tensor {
    if grad.shape() == target_shape {
        return grad.clone();
    }
    let mut g = grad.clone();
    // Collapse leading extra axes.
    while g.rank() > target_shape.len() {
        g = g.sum_axis(0);
    }
    // Sum over axes where the target had size 1.
    for axis in 0..target_shape.len() {
        if target_shape[axis] == 1 && g.shape()[axis] != 1 {
            let mut kept = g.shape().to_vec();
            kept[axis] = 1;
            g = g.sum_axis(axis).reshape(&kept);
        }
    }
    g.reshape(target_shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())), "{a} vs {b}");
    }

    #[test]
    fn add_backward_broadcast() {
        let a = Var::parameter(Tensor::from_vec(vec![1.0, 2.0], &[2, 1]));
        let b = Var::parameter(Tensor::from_vec(vec![3.0, 4.0, 5.0], &[3]));
        let loss = a.add(&b).sum();
        loss.backward();
        assert_eq!(a.grad().unwrap().as_slice(), &[3.0, 3.0]);
        assert_eq!(b.grad().unwrap().as_slice(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn mul_backward() {
        let a = Var::parameter(Tensor::from_vec(vec![2.0, 3.0], &[2]));
        let b = Var::parameter(Tensor::from_vec(vec![5.0, 7.0], &[2]));
        a.mul(&b).sum().backward();
        assert_eq!(a.grad().unwrap().as_slice(), &[5.0, 7.0]);
        assert_eq!(b.grad().unwrap().as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn div_backward() {
        let a = Var::parameter(Tensor::from_vec(vec![6.0], &[1]));
        let b = Var::parameter(Tensor::from_vec(vec![3.0], &[1]));
        a.div(&b).sum().backward();
        assert_close(a.grad().unwrap().item(), 1.0 / 3.0, 1e-6);
        assert_close(b.grad().unwrap().item(), -6.0 / 9.0, 1e-6);
    }

    #[test]
    fn matmul_backward() {
        let a = Var::parameter(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let b = Var::parameter(Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]));
        a.matmul(&b).sum().backward();
        // d/dA (sum AB) = 1 B^T, d/dB = A^T 1
        assert_eq!(a.grad().unwrap().as_slice(), &[11.0, 15.0, 11.0, 15.0]);
        assert_eq!(b.grad().unwrap().as_slice(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn chain_rule_through_activation() {
        let x = Var::parameter(Tensor::from_vec(vec![0.5], &[1]));
        let y = x.tanh().mul(&x.tanh()).sum(); // tanh(x)^2
        y.backward();
        let t = 0.5f32.tanh();
        assert_close(x.grad().unwrap().item(), 2.0 * t * (1.0 - t * t), 1e-5);
    }

    #[test]
    fn grad_accumulates_for_shared_node() {
        let x = Var::parameter(Tensor::from_vec(vec![3.0], &[1]));
        let y = x.add(&x).sum(); // 2x
        y.backward();
        assert_eq!(x.grad().unwrap().item(), 2.0);
    }

    #[test]
    fn constant_receives_no_grad() {
        let x = Var::parameter(Tensor::from_vec(vec![1.0], &[1]));
        let c = Var::constant(Tensor::from_vec(vec![2.0], &[1]));
        x.mul(&c).sum().backward();
        assert!(c.grad().is_none());
        assert_eq!(x.grad().unwrap().item(), 2.0);
    }

    #[test]
    fn detach_cuts_graph() {
        let x = Var::parameter(Tensor::from_vec(vec![2.0], &[1]));
        let d = x.mul(&x).detach();
        d.mul(&x).sum().backward();
        assert_eq!(x.grad().unwrap().item(), 4.0); // only the outer factor
    }

    #[test]
    fn softmax_grad_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(11);
        let x0 = Tensor::randn(&[2, 4], &mut rng);
        let x = Var::parameter(x0.clone());
        let w = Tensor::randn(&[2, 4], &mut rng);
        let loss = x.softmax_last_axis().mul(&Var::constant(w.clone())).sum();
        loss.backward();
        let analytic = x.grad().unwrap();
        let eps = 1e-3;
        for i in 0..8 {
            let mut plus = x0.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = x0.clone();
            minus.as_mut_slice()[i] -= eps;
            let f = |t: &Tensor| t.softmax_last_axis().mul(&w).sum();
            let numeric = (f(&plus) - f(&minus)) / (2.0 * eps);
            assert_close(analytic.as_slice()[i], numeric, 2e-2);
        }
    }

    #[test]
    fn conv2d_grads_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(13);
        let x0 = Tensor::randn(&[1, 2, 4, 4], &mut rng);
        let w0 = Tensor::randn(&[3, 2, 3, 3], &mut rng).mul_scalar(0.5);
        let b0 = Tensor::randn(&[3], &mut rng);
        let proj = Tensor::randn(&[1, 3, 4, 4], &mut rng);
        let run = |x: &Tensor, w: &Tensor, b: &Tensor| -> f32 {
            x.conv2d(w, Some(b), 1, 1)
                .as_slice()
                .iter()
                .zip(proj.as_slice())
                .map(|(a, p)| a * p)
                .sum()
        };
        let x = Var::parameter(x0.clone());
        let w = Var::parameter(w0.clone());
        let b = Var::parameter(b0.clone());
        let out = x.conv2d(&w, Some(&b), 1, 1);
        out.mul(&Var::constant(proj.clone())).sum().backward();
        let eps = 1e-2;
        // spot-check a few coordinates of each gradient
        for i in [0usize, 7, 15] {
            let mut p = x0.clone();
            p.as_mut_slice()[i] += eps;
            let mut m = x0.clone();
            m.as_mut_slice()[i] -= eps;
            let num = (run(&p, &w0, &b0) - run(&m, &w0, &b0)) / (2.0 * eps);
            assert_close(x.grad().unwrap().as_slice()[i], num, 5e-2);
        }
        for i in [0usize, 10, 50] {
            let mut p = w0.clone();
            p.as_mut_slice()[i] += eps;
            let mut m = w0.clone();
            m.as_mut_slice()[i] -= eps;
            let num = (run(&x0, &p, &b0) - run(&x0, &m, &b0)) / (2.0 * eps);
            assert_close(w.grad().unwrap().as_slice()[i], num, 5e-2);
        }
        for i in 0..3 {
            let mut p = b0.clone();
            p.as_mut_slice()[i] += eps;
            let mut m = b0.clone();
            m.as_mut_slice()[i] -= eps;
            let num = (run(&x0, &w0, &p) - run(&x0, &w0, &m)) / (2.0 * eps);
            assert_close(b.grad().unwrap().as_slice()[i], num, 5e-2);
        }
    }

    #[test]
    fn conv_transpose_grads_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(17);
        let x0 = Tensor::randn(&[1, 2, 3, 3], &mut rng);
        let w0 = Tensor::randn(&[2, 3, 2, 2], &mut rng).mul_scalar(0.5);
        let proj = Tensor::randn(&[1, 3, 6, 6], &mut rng);
        let run = |x: &Tensor, w: &Tensor| -> f32 {
            x.conv_transpose2d(w, None, 2, 0)
                .as_slice()
                .iter()
                .zip(proj.as_slice())
                .map(|(a, p)| a * p)
                .sum()
        };
        let x = Var::parameter(x0.clone());
        let w = Var::parameter(w0.clone());
        x.conv_transpose2d(&w, None, 2, 0).mul(&Var::constant(proj.clone())).sum().backward();
        let eps = 1e-2;
        for i in [0usize, 5, 17] {
            let mut p = x0.clone();
            p.as_mut_slice()[i] += eps;
            let mut m = x0.clone();
            m.as_mut_slice()[i] -= eps;
            let num = (run(&p, &w0) - run(&m, &w0)) / (2.0 * eps);
            assert_close(x.grad().unwrap().as_slice()[i], num, 5e-2);
        }
        for i in [0usize, 9, 23] {
            let mut p = w0.clone();
            p.as_mut_slice()[i] += eps;
            let mut m = w0.clone();
            m.as_mut_slice()[i] -= eps;
            let num = (run(&x0, &p) - run(&x0, &m)) / (2.0 * eps);
            assert_close(w.grad().unwrap().as_slice()[i], num, 5e-2);
        }
    }

    #[test]
    fn pooling_and_upsample_grads() {
        let x =
            Var::parameter(Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]));
        x.avg_pool2d(2).sum().backward();
        assert!(x.grad().unwrap().as_slice().iter().all(|&v| (v - 0.25).abs() < 1e-6));

        let y = Var::parameter(Tensor::ones(&[1, 1, 2, 2]));
        y.upsample_nearest2x().sum().backward();
        assert!(y.grad().unwrap().as_slice().iter().all(|&v| (v - 4.0).abs() < 1e-6));
    }

    #[test]
    fn narrow_and_concat_grads() {
        let x = Var::parameter(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]));
        let a = x.narrow(0, 0, 2);
        let b = x.narrow(0, 2, 2);
        Var::concat(&[&b, &a], 0).scale(2.0).sum().backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn index_select_scatter_adds() {
        let table = Var::parameter(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]));
        table.index_select0(&[0, 2, 0]).sum().backward();
        assert_eq!(table.grad().unwrap().as_slice(), &[2.0, 2.0, 0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn mse_loss_gradient() {
        let x = Var::parameter(Tensor::from_vec(vec![1.0, 3.0], &[2]));
        let loss = x.mse_loss(&Tensor::from_vec(vec![0.0, 0.0], &[2]));
        loss.backward();
        // d/dx mean((x)^2) = 2x/n
        assert_eq!(x.grad().unwrap().as_slice(), &[1.0, 3.0]);
        assert_close(loss.value().item(), 5.0, 1e-6);
    }

    #[test]
    fn bmm_backward_matches_loop_of_matmuls() {
        let mut rng = StdRng::seed_from_u64(19);
        let a0 = Tensor::randn(&[2, 3, 4], &mut rng);
        let b0 = Tensor::randn(&[2, 4, 2], &mut rng);
        let a = Var::parameter(a0.clone());
        let b = Var::parameter(b0.clone());
        a.bmm(&b).sum().backward();
        // reference: grad of sum(AB) per batch
        for batch in 0..2 {
            let bt = b0.narrow(0, batch, 1).reshape(&[4, 2]).transpose();
            let ones = Tensor::ones(&[3, 2]);
            let da_ref = ones.matmul(&bt);
            let da = a.grad().unwrap().narrow(0, batch, 1).reshape(&[3, 4]);
            assert!(da.sub(&da_ref).abs().max() < 1e-5);
        }
    }

    #[test]
    fn sum_axis_keepdim_grad_broadcasts() {
        let x = Var::parameter(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        x.sum_axis_keepdim(1)
            .mul(&Var::constant(Tensor::from_vec(vec![10.0, 20.0], &[2, 1])))
            .sum()
            .backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[10.0, 10.0, 20.0, 20.0]);
    }

    #[test]
    fn backward_frees_interior_grads_but_keeps_leaves() {
        let x = Var::parameter(Tensor::from_vec(vec![1.0], &[1]));
        let mid = x.scale(2.0);
        mid.sum().backward();
        assert!(x.grad().is_some());
        assert!(mid.grad().is_none());
    }

    /// One result per op, every op on parameter inputs, with values
    /// fixed by the seed so two calls build identical graphs.
    fn every_op() -> Vec<(&'static str, Var)> {
        let mut rng = StdRng::seed_from_u64(23);
        let mut p = |shape: &[usize]| Var::parameter(Tensor::randn(shape, &mut rng));
        let (x, y, m) = (p(&[2, 3]), p(&[2, 3]), p(&[3, 2]));
        let (a3, b3) = (p(&[2, 2, 3]), p(&[2, 3, 2]));
        let (img, w, wt, bias) = (p(&[1, 2, 4, 4]), p(&[3, 2, 3, 3]), p(&[2, 3, 2, 2]), p(&[3]));
        let pos = Var::parameter(p(&[2, 3]).value().map(|v| v.abs() + 0.5));
        let target = Tensor::zeros(&[2, 3]);
        vec![
            ("add", x.add(&y)),
            ("sub", x.sub(&y)),
            ("mul", x.mul(&y)),
            ("div", x.div(&pos)),
            ("scale", x.scale(1.5)),
            ("add_scalar", x.add_scalar(0.5)),
            ("neg", x.neg()),
            ("exp", x.exp()),
            ("ln", pos.ln()),
            ("sqrt", pos.sqrt()),
            ("powf", pos.powf(1.7)),
            ("relu", x.relu()),
            ("sigmoid", x.sigmoid()),
            ("tanh", x.tanh()),
            ("silu", x.silu()),
            ("gelu", x.gelu()),
            ("matmul", x.matmul(&m)),
            ("bmm", a3.bmm(&b3)),
            ("reshape", x.reshape(&[3, 2])),
            ("permute", a3.permute(&[2, 0, 1])),
            ("narrow", x.narrow(1, 1, 2)),
            ("concat", Var::concat(&[&x, &y], 0)),
            ("index_select0", x.index_select0(&[1, 0, 1])),
            ("sum", x.sum()),
            ("mean", x.mean()),
            ("sum_axis_keepdim", x.sum_axis_keepdim(1)),
            ("mean_axis_keepdim", x.mean_axis_keepdim(0)),
            ("softmax_last_axis", x.softmax_last_axis()),
            ("conv2d", img.conv2d(&w, Some(&bias), 1, 1)),
            ("conv2d_no_bias", img.conv2d(&w, None, 2, 1)),
            ("conv_transpose2d", img.conv_transpose2d(&wt, Some(&bias), 2, 0)),
            ("avg_pool2d", img.avg_pool2d(2)),
            ("upsample_nearest2x", img.upsample_nearest2x()),
            ("mse_loss", x.mse_loss(&target)),
        ]
    }

    #[test]
    fn no_grad_ops_return_parentless_leaves_with_the_recorded_values() {
        let recorded = every_op();
        let inference = no_grad(every_op);
        assert_eq!(recorded.len(), inference.len());
        for ((name, rec), (_, inf)) in recorded.iter().zip(&inference) {
            assert!(rec.requires_grad() && !rec.is_leaf(), "{name}: must record outside no_grad");
            assert!(!inf.requires_grad(), "{name}: requires_grad inside no_grad");
            assert!(inf.parents().is_empty(), "{name}: kept parents inside no_grad");
            let bits =
                |v: &Var| v.value().as_slice().iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(rec.shape(), inf.shape(), "{name}: shape");
            assert_eq!(bits(rec), bits(inf), "{name}: value must be bit-identical");
        }
    }

    #[test]
    fn recording_resumes_after_scope_nested_scope_and_panic() {
        let x = Var::parameter(Tensor::from_vec(vec![2.0], &[1]));
        let records = || {
            let y = x.scale(3.0);
            y.requires_grad() && !y.is_leaf()
        };
        assert!(records());
        no_grad(|| {
            assert!(!records());
            no_grad(|| assert!(!records()));
            assert!(!records(), "leaving a nested scope must keep the outer one");
        });
        assert!(records(), "recording must resume after the scope");
        let caught = std::panic::catch_unwind(|| no_grad::<()>(|| panic!("boom")));
        assert!(caught.is_err());
        assert!(records(), "recording must resume after a panic inside the scope");
        x.scale(3.0).sum().backward();
        assert_eq!(x.grad().unwrap().item(), 3.0);
    }
}
