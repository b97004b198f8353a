//! Seed-driven inputs, generated by the benchmark and handed to both sides
//! as plain data: the program under test never sees the seed.

/// SplitMix64: the benchmark's own generator, independent of either side's
/// `rand` shim so that a change to the shim cannot change the inputs.
pub struct Rng64(u64);

impl Rng64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % u64::from(n)) as u32
    }

    /// Standard normal (Box–Muller, one draw per call).
    pub fn gauss(&mut self) -> f32 {
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
    }
}

/// Embedding tables of a serving catalogue, row-major `rows × dim`.
pub struct ServeInputs {
    pub dim: usize,
    pub n_users: usize,
    pub n_items: usize,
    /// Generation A's user rows.
    pub users: Vec<f32>,
    /// Generation B's user rows (A's in reverse row order): what
    /// `swap_artifact` alternates with, so answers differ by generation.
    pub users_b: Vec<f32>,
    pub items: Vec<f32>,
}

const SERVE_CLUSTERS: usize = 64;

/// A clustered catalogue: items scatter around `SERVE_CLUSTERS` centres and
/// each user blends two of them, so an IVF probe has structure to find (pure
/// Gaussian rows would make every list equally likely).
pub fn serve_inputs(seed: u64, n_users: usize, n_items: usize, dim: usize) -> ServeInputs {
    let mut rng = Rng64::new(seed ^ 0x5E2F_E1DA);
    let centres: Vec<f32> = (0..SERVE_CLUSTERS * dim).map(|_| rng.gauss()).collect();
    let centre = |c: usize| &centres[c * dim..(c + 1) * dim];
    let mut items = Vec::with_capacity(n_items * dim);
    for _ in 0..n_items {
        let c = rng.below(SERVE_CLUSTERS as u32) as usize;
        items.extend(centre(c).iter().map(|&x| x + 0.6 * rng.gauss()));
    }
    let mut users = Vec::with_capacity(n_users * dim);
    for _ in 0..n_users {
        let a = rng.below(SERVE_CLUSTERS as u32) as usize;
        let b = rng.below(SERVE_CLUSTERS as u32) as usize;
        let w = rng.unit() as f32;
        for j in 0..dim {
            users.push(w * centre(a)[j] + (1.0 - w) * centre(b)[j] + 0.3 * rng.gauss());
        }
    }
    let users_b = users.chunks(dim).rev().flatten().copied().collect();
    ServeInputs { dim, n_users, n_items, users, users_b, items }
}

/// One serving request, in terms neither side's types appear in.
#[derive(Clone, Debug)]
pub enum Req {
    Recommend {
        user: u32,
    },
    ScoreItems {
        user: u32,
        items: [u32; 2],
    },
    Stats,
    /// Hot-swap to generation file A (`false`) or B (`true`).
    Swap {
        to_b: bool,
    },
}

pub const TOP_K: usize = 10;

/// The 14/1/1 recommend / score_items / stats mix of `load_gen --mode tcp`,
/// `n` requests with seeded users.
pub fn mixed_stream(rng: &mut Rng64, n: usize, n_users: u32, n_items: u32) -> Vec<Req> {
    (0..n)
        .map(|j| {
            let user = rng.below(n_users);
            match j % 16 {
                15 => Req::Stats,
                7 => Req::ScoreItems { user, items: [rng.below(n_items), rng.below(n_items)] },
                _ => Req::Recommend { user },
            }
        })
        .collect()
}

/// `n` recommend requests with seeded users.
pub fn recommend_stream(rng: &mut Rng64, n: usize, n_users: u32) -> Vec<Req> {
    (0..n).map(|_| Req::Recommend { user: rng.below(n_users) }).collect()
}

/// Offsets in seconds from slice start of `n` Poisson arrivals at `rate`/s.
pub fn poisson_arrivals(rng: &mut Rng64, n: usize, rate: f64) -> Vec<f64> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / rate;
            t
        })
        .collect()
}
