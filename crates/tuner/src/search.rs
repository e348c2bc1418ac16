//! The search harness: tunables, strategies, trial logs.

use gpucmp_runtime::{Gpu, RtError};

/// One discrete tunable parameter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TunableParam {
    /// Parameter name (for reports).
    pub name: &'static str,
    /// Allowed values, in ascending preference-free order.
    pub choices: Vec<i64>,
}

/// A kernel family with a discrete configuration space.
pub trait Tunable {
    /// Family name.
    fn name(&self) -> &'static str;
    /// The parameter space, in configuration-vector order.
    fn params(&self) -> Vec<TunableParam>;
    /// Run one configuration; returns the achieved performance
    /// (higher = better). A configuration may be invalid on a device
    /// (e.g. a work-group size beyond its maximum): return `Ok(None)`.
    fn run(&self, gpu: &mut dyn Gpu, config: &[i64]) -> Result<Option<f64>, RtError>;
}

/// One evaluated configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct Trial {
    /// Configuration vector (one value per [`TunableParam`]).
    pub config: Vec<i64>,
    /// Achieved performance, `None` if the configuration was invalid.
    pub value: Option<f64>,
}

/// Result of a tuning run.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneResult {
    /// Best configuration found.
    pub best_config: Vec<i64>,
    /// Its performance.
    pub best_value: f64,
    /// Every evaluated configuration, in evaluation order.
    pub trials: Vec<Trial>,
}

/// Search strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Evaluate the full Cartesian product.
    Exhaustive,
    /// Coordinate descent from the first valid configuration: sweep one
    /// parameter at a time, keep the best, repeat until a full sweep makes
    /// no progress. Much cheaper on large spaces; may find local optima.
    Greedy,
}

/// The auto-tuner.
#[derive(Clone, Copy, Debug)]
pub struct Tuner {
    /// Strategy to use.
    pub strategy: SearchStrategy,
    /// Maximum trials (safety valve).
    pub max_trials: usize,
}

impl Tuner {
    /// Exhaustive search.
    pub fn exhaustive() -> Tuner {
        Tuner {
            strategy: SearchStrategy::Exhaustive,
            max_trials: 4096,
        }
    }

    /// Greedy coordinate descent.
    pub fn greedy() -> Tuner {
        Tuner {
            strategy: SearchStrategy::Greedy,
            max_trials: 4096,
        }
    }

    /// Tune `t` on the given runtime. Returns an error only if *no*
    /// configuration ran (device errors on specific configs count as
    /// invalid configurations).
    pub fn tune(&self, t: &dyn Tunable, gpu: &mut dyn Gpu) -> Result<TuneResult, RtError> {
        let params = t.params();
        assert!(!params.is_empty(), "nothing to tune");
        let mut trials = Vec::new();
        let evaluate = |cfg: &[i64], gpu: &mut dyn Gpu, trials: &mut Vec<Trial>| -> Option<f64> {
            // skip duplicates (greedy revisits pivots)
            if let Some(t) = trials.iter().find(|t| t.config == cfg) {
                return t.value;
            }
            // a run error means the device rejected this configuration
            let value = t.run(gpu, cfg).unwrap_or_default();
            trials.push(Trial {
                config: cfg.to_vec(),
                value,
            });
            value
        };

        match self.strategy {
            SearchStrategy::Exhaustive => {
                let mut idx = vec![0usize; params.len()];
                loop {
                    if trials.len() >= self.max_trials {
                        break;
                    }
                    let cfg: Vec<i64> = idx
                        .iter()
                        .zip(&params)
                        .map(|(&i, p)| p.choices[i])
                        .collect();
                    evaluate(&cfg, gpu, &mut trials);
                    // odometer increment
                    let mut k = 0;
                    loop {
                        if k == params.len() {
                            break;
                        }
                        idx[k] += 1;
                        if idx[k] < params[k].choices.len() {
                            break;
                        }
                        idx[k] = 0;
                        k += 1;
                    }
                    if k == params.len() {
                        break;
                    }
                }
            }
            SearchStrategy::Greedy => {
                // start from the first configuration of every parameter
                let mut current: Vec<i64> = params.iter().map(|p| p.choices[0]).collect();
                let mut best = evaluate(&current, gpu, &mut trials);
                let mut improved = true;
                while improved && trials.len() < self.max_trials {
                    improved = false;
                    for (pi, p) in params.iter().enumerate() {
                        for &choice in &p.choices {
                            if choice == current[pi] {
                                continue;
                            }
                            let mut cfg = current.clone();
                            cfg[pi] = choice;
                            let v = evaluate(&cfg, gpu, &mut trials);
                            if better(v, best) {
                                best = v;
                                current = cfg;
                                improved = true;
                            }
                        }
                    }
                }
            }
        }

        let best = trials
            .iter()
            .filter_map(|t| t.value.map(|v| (t.config.clone(), v)))
            .max_by(|a, b| a.1.total_cmp(&b.1));
        match best {
            Some((best_config, best_value)) => Ok(TuneResult {
                best_config,
                best_value,
                trials,
            }),
            None => Err(RtError::Compile(format!(
                "no valid configuration for {} on {}",
                t.name(),
                gpu.device().name
            ))),
        }
    }
}

fn better(candidate: Option<f64>, incumbent: Option<f64>) -> bool {
    match (candidate, incumbent) {
        (Some(c), Some(i)) => c > i,
        (Some(_), None) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpucmp_runtime::OpenCl;
    use gpucmp_sim::DeviceSpec;

    /// A synthetic tunable with a known optimum and no device work.
    struct Paraboloid;

    impl Tunable for Paraboloid {
        fn name(&self) -> &'static str {
            "paraboloid"
        }
        fn params(&self) -> Vec<TunableParam> {
            vec![
                TunableParam {
                    name: "x",
                    choices: vec![-2, -1, 0, 1, 2],
                },
                TunableParam {
                    name: "y",
                    choices: vec![-2, -1, 0, 1, 2],
                },
            ]
        }
        fn run(&self, _gpu: &mut dyn Gpu, cfg: &[i64]) -> Result<Option<f64>, RtError> {
            // maximum at (1, -1); the (2,2) corner is invalid
            if cfg == [2, 2] {
                return Ok(None);
            }
            let (x, y) = (cfg[0] as f64, cfg[1] as f64);
            Ok(Some(100.0 - (x - 1.0).powi(2) - (y + 1.0).powi(2)))
        }
    }

    #[test]
    fn exhaustive_finds_the_optimum() {
        let mut gpu = OpenCl::create_any(DeviceSpec::gtx480());
        let r = Tuner::exhaustive().tune(&Paraboloid, &mut gpu).unwrap();
        assert_eq!(r.best_config, vec![1, -1]);
        assert_eq!(r.best_value, 100.0);
        assert_eq!(r.trials.len(), 25);
        assert_eq!(r.trials.iter().filter(|t| t.value.is_none()).count(), 1);
    }

    #[test]
    fn greedy_finds_the_optimum_on_separable_objectives() {
        let mut gpu = OpenCl::create_any(DeviceSpec::gtx480());
        let r = Tuner::greedy().tune(&Paraboloid, &mut gpu).unwrap();
        assert_eq!(r.best_config, vec![1, -1]);
        assert!(
            r.trials.len() < 25,
            "greedy must search less: {}",
            r.trials.len()
        );
    }

    #[test]
    fn all_invalid_is_an_error() {
        struct Hopeless;
        impl Tunable for Hopeless {
            fn name(&self) -> &'static str {
                "hopeless"
            }
            fn params(&self) -> Vec<TunableParam> {
                vec![TunableParam {
                    name: "x",
                    choices: vec![0, 1],
                }]
            }
            fn run(&self, _g: &mut dyn Gpu, _c: &[i64]) -> Result<Option<f64>, RtError> {
                Ok(None)
            }
        }
        let mut gpu = OpenCl::create_any(DeviceSpec::gtx480());
        assert!(Tuner::exhaustive().tune(&Hopeless, &mut gpu).is_err());
    }
}
