//! The training workload: `leaps train` at the paper's size, as an
//! analyst runs it, plus (traced pass) the same pipeline called stage by
//! stage in-process.

use crate::inputs::{self, TrainingLogs};
use crate::stats::{median, repeat_share};
use crate::trace::Tracer;
use crate::{procfs, Ctx, Report};
use leaps::cfg::infer::infer_cfg;
use leaps::cfg::weight::assess_weights;
use leaps::cluster::features::FeatureEncoder;
use leaps::core::config::PipelineConfig;
use leaps::core::persist::{load_classifier, save_classifier};
use leaps::core::pipeline::{
    try_train_classifier, try_train_classifier_checkpointed, CheckpointSpec, Classifier,
    HmmDetector, Method, SvmClassifier, TrainRun,
};
use leaps::etw::rng::SimRng;
use leaps::etw::scenario::GenParams;
use leaps::hmm::classify::{HmmClassifier, SymbolTable};
use leaps::hmm::hmm::HmmParams;
use leaps::svm::cv::{GridSearch, Scoring};
use leaps::svm::data::{Sample, TrainSet};
use leaps::svm::kernel::Kernel;
use leaps::svm::smo::{train as smo_train, SmoParams};
use leaps::trace::partition::PartitionedEvent;
use std::path::{Path, PathBuf};
use std::process::Stdio;
use std::time::Instant;

/// Benign events trained on: the first half of the paper's 6,000-event
/// benign log. The second half is held out for scoring.
const BENIGN_TRAIN: usize = 3000;
/// `leaps train --threads`.
const THREADS: usize = 2;
/// `--checkpoint-every` of the checkpointed run.
const CHECKPOINT_EVERY: usize = 50;
/// Training datasets per run, each generated from its own sub-seed. How
/// long training takes depends on the data (support vectors, SMO
/// iterations), so each figure averages over several datasets.
const DATASETS: usize = 8;
const SETUP_REPEATS: usize = 5;
/// Rounds run even if they overrun `--seconds`: every dataset is trained
/// on at least once, so every run averages over the same datasets.
const MIN_ROUNDS: usize = DATASETS;
/// Leading held-out windows the traced pass scores with the HMM.
const HMM_SCORE_WINDOWS: usize = 500;
/// `HMM_TRAIN_CHUNK` of the training pipeline.
const HMM_CHUNK: usize = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Wsvm,
    Checkpointed,
    Hmm,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Wsvm, Kind::Checkpointed, Kind::Hmm];

    fn label(self) -> &'static str {
        match self {
            Kind::Wsvm => "wsvm",
            Kind::Checkpointed => "ckpt",
            Kind::Hmm => "hmm",
        }
    }
}

struct Invocation {
    wall_s: f64,
    usage: procfs::ChildUsage,
    model: Vec<u8>,
}

fn leaps_train(
    ctx: &Ctx,
    kind: Kind,
    logs: &TrainingLogs,
    out: &Path,
) -> Result<Invocation, String> {
    let mut cmd = std::process::Command::new(&ctx.leaps);
    cmd.args(["train", "--threads", &THREADS.to_string(), "--seed", &ctx.opts.seed.to_string()])
        .arg("--benign")
        .arg(&logs.benign_path)
        .arg("--mixed")
        .arg(&logs.mixed_path)
        .arg("--out")
        .arg(out)
        .stdout(Stdio::null());
    match kind {
        Kind::Wsvm => {}
        Kind::Checkpointed => {
            cmd.arg("--checkpoint-dir")
                .arg(out.with_extension("ckpt"))
                .args(["--checkpoint-every", &CHECKPOINT_EVERY.to_string()]);
        }
        Kind::Hmm => {
            cmd.args(["--method", "hmm"]);
        }
    }
    let _ = std::fs::remove_file(out);
    let t = Instant::now();
    let child = cmd.spawn().map_err(|e| format!("spawning leaps train: {e}"))?;
    let usage = procfs::wait_with_usage(&child).map_err(|e| format!("waiting: {e}"))?;
    let wall_s = (usage.exited_at - t).as_secs_f64();
    let model =
        if usage.code == Some(0) { std::fs::read(out).unwrap_or_default() } else { Vec::new() };
    Ok(Invocation { wall_s, usage, model })
}

/// Re-implements `svm_prelude` + `train_svm_family` of the pipeline from
/// the layers' public functions, one span per stage. Returns the model and
/// the number of samples it was trained on.
fn staged_wsvm(
    t: &mut Tracer,
    seed: u64,
    benign: &[PartitionedEvent],
    mixed: &[PartitionedEvent],
    config: &PipelineConfig,
) -> Result<(Classifier, usize), String> {
    let root = t.open("train.wsvm", 1, None);
    let fit_events: Vec<&PartitionedEvent> = benign.iter().chain(mixed).collect();
    let encoder =
        t.time("cluster.fit", 1, root, || FeatureEncoder::fit(&fit_events, config.preprocess));
    let (bcfg, mcfg) = t.time("cfg.infer", 1, root, || (infer_cfg(benign), infer_cfg(mixed)));
    let weights =
        t.time("cfg.weights", 1, root, || assess_weights(&bcfg.cfg, &mcfg, config.weight));
    let benign_refs: Vec<&PartitionedEvent> = benign.iter().collect();
    let mixed_refs: Vec<&PartitionedEvent> = mixed.iter().collect();
    let ((benign_points, _), (mixed_points, mixed_covers)) =
        t.time("cluster.encode_sequence", 1, root, || {
            (encoder.encode_sequence(&benign_refs), encoder.encode_sequence(&mixed_refs))
        });
    let train_set = t.time("svm.coalesce", 1, root, || {
        let mut samples = Vec::new();
        let mut rng = SimRng::new(seed ^ 0x7ea1_11ed);
        for point in &benign_points {
            if rng.chance(config.sample_fraction) {
                samples.push(Sample::new(point.clone(), 1.0, 1.0));
            }
        }
        let negative_fraction =
            config.sample_fraction * benign_points.len() as f64 / mixed_points.len() as f64;
        for (point, cover) in mixed_points.iter().zip(&mixed_covers) {
            if rng.chance(negative_fraction.min(1.0)) {
                let c = if cover.is_empty() {
                    config.weight_floor
                } else {
                    let sum: f64 = cover.iter().map(|&i| weights.maliciousness(mixed[i].num)).sum();
                    (sum / cover.len() as f64).max(config.weight_floor)
                };
                samples.push(Sample::new(point.clone(), -1.0, c));
            }
        }
        TrainSet::new(samples)
    });
    let train_set = train_set.map_err(|e| format!("degenerate training set: {e:?}"))?;
    let grid = GridSearch {
        lambdas: config.tuning.lambdas.clone(),
        sigma2s: config.tuning.sigma2s.clone(),
        folds: config.tuning.folds,
        seed,
        scoring: Scoring::WeightedBalanced,
    };
    let best = t.time("svm.cv", 1, root, || grid.run(&train_set));
    let model = t.time("svm.smo", 1, root, || {
        smo_train(
            &train_set,
            Kernel::Gaussian { sigma2: best.sigma2 },
            &SmoParams { lambda: best.lambda, ..Default::default() },
        )
    });
    t.close(root);
    let tuned = (best.lambda, best.sigma2);
    Ok((Classifier::Svm(SvmClassifier { model, encoder, tuned }), train_set.len()))
}

/// Re-implements the pipeline's HMM training from public functions.
fn staged_hmm(
    t: &mut Tracer,
    seed: u64,
    benign: &[PartitionedEvent],
    mixed: &[PartitionedEvent],
    config: &PipelineConfig,
) -> Classifier {
    let root = t.open("train.hmm", 2, None);
    let (encoder, table, benign_symbols, mixed_symbols) = t.time("hmm.prelude", 2, root, || {
        let fit_events: Vec<&PartitionedEvent> = benign.iter().chain(mixed).collect();
        let encoder = FeatureEncoder::fit(&fit_events, config.preprocess);
        let mut table: SymbolTable<(u32, u32, u32)> = SymbolTable::new();
        let b: Vec<usize> = benign.iter().map(|e| table.intern(encoder.tuple(e))).collect();
        let m: Vec<usize> = mixed.iter().map(|e| table.intern(encoder.tuple(e))).collect();
        (encoder, table, b, m)
    });
    let clf = t.time("hmm.bw", 2, root, || {
        HmmClassifier::fit(
            &benign_symbols,
            &mixed_symbols,
            table.alphabet_size(),
            HMM_CHUNK,
            &HmmParams { seed, ..HmmParams::default() },
        )
    });
    t.close(root);
    Classifier::Hmm(HmmDetector::from_parts(clf, encoder, table))
}

fn obs_counter(name: &str) -> u64 {
    leaps::obs::registry().snapshot().counter(name).unwrap_or(0)
}

/// The traced pass: staged calls in the pipeline's order, each staged
/// model compared byte for byte with what `leaps train` wrote.
fn traced(
    ctx: &mut Ctx,
    logs: &TrainingLogs,
    wsvm_file: &[u8],
    hmm_file: &[u8],
    report: &mut Report,
) -> Result<(), String> {
    leaps::core::par::set_thread_override(Some(THREADS));
    let config = PipelineConfig::default();
    let seed = ctx.opts.seed;
    let read = |p: &PathBuf| std::fs::read_to_string(p).map_err(|e| e.to_string());
    let (benign_raw, mixed_raw) = (read(&logs.benign_path)?, read(&logs.mixed_path)?);
    let (benign, mixed) = ctx.tracer.time("trace.parse", 0, None, || {
        (inputs::partition(&benign_raw), inputs::partition(&mixed_raw))
    });

    // The property `encode_sequence`'s per-set memo depends on.
    let (repeats, keyed) =
        repeat_share(benign.iter().chain(&mixed).map(|e| (e.lib_set(), e.func_set())));
    report.per_layer.insert("cluster.repeat_share", repeats as f64 / keyed.max(1) as f64);

    let (staged, train_samples) = staged_wsvm(&mut ctx.tracer, seed, &benign, &mixed, &config)?;
    let staged_text = save_classifier(&staged);
    // The same stages with spans off: the reference for `trace.overhead`.
    let t = Instant::now();
    staged_wsvm(&mut Tracer::new(false), seed, &benign, &mixed, &config)?;
    let untraced_s = t.elapsed().as_secs_f64();
    if let Classifier::Svm(svm) = &staged {
        let l = &mut report.per_layer;
        let tuning = &config.tuning;
        let cells = tuning.lambdas.len() * tuning.sigma2s.len() * tuning.folds;
        l.insert("svm.cv_cells", cells as f64);
        l.insert("svm.train_samples", train_samples as f64);
        l.insert("svm.smo_iterations", svm.model.iterations() as f64);
        l.insert("svm.support_vectors", svm.model.support_vector_count() as f64);
        l.insert("cluster.lib_clusters", svm.encoder.lib_cluster_count() as f64);
        l.insert("cluster.func_clusters", svm.encoder.func_cluster_count() as f64);
    }
    report.check(staged_text.as_bytes() == wsvm_file, || {
        "staged WSVM model differs from `leaps train`'s".to_owned()
    });
    let t = Instant::now();
    let whole = try_train_classifier(Method::Wsvm, &benign, &mixed, &config, seed)
        .map_err(|e| e.to_string())?;
    let whole_s = t.elapsed().as_secs_f64();
    report.check(save_classifier(&whole) == staged_text, || {
        "staged WSVM model differs from try_train_classifier's".to_owned()
    });

    let staged_hmm = staged_hmm(&mut ctx.tracer, seed, &benign, &mixed, &config);
    report.check(save_classifier(&staged_hmm).as_bytes() == hmm_file, || {
        "staged HMM model differs from `leaps train`'s".to_owned()
    });

    let ckpt_dir = ctx.dir("traced-ckpt").map_err(|e| e.to_string())?;
    let spec = CheckpointSpec { every: CHECKPOINT_EVERY, ..CheckpointSpec::new(&ckpt_dir) };
    let (writes, bytes) = (obs_counter("ckpt.writes"), obs_counter("ckpt.bytes"));
    let t = Instant::now();
    let span = ctx.tracer.open("train.ckpt", 3, None);
    let run =
        try_train_classifier_checkpointed(Method::Wsvm, &benign, &mixed, &config, seed, &spec)
            .map_err(|e| e.to_string())?;
    ctx.tracer.close(span);
    let ckpt_s = t.elapsed().as_secs_f64();
    let TrainRun::Done(checkpointed) = run else {
        return Err("checkpointed training paused without a deadline".to_owned());
    };
    report.check(save_classifier(&checkpointed) == staged_text, || {
        "in-process checkpointed model differs from the plain one".to_owned()
    });

    // HMM scoring cost per window, on held-out benign windows.
    let Classifier::Hmm(hmm) = &staged_hmm else { unreachable!("staged_hmm builds an HMM") };
    let held_out = inputs::partition(&logs.held_out_raw);
    let cfg = hmm.encoder_config();
    let windows: Vec<&[PartitionedEvent]> = (0..)
        .map(|i| i * cfg.stride)
        .take_while(|start| start + cfg.window <= held_out.len())
        .take(HMM_SCORE_WINDOWS)
        .map(|start| &held_out[start..start + cfg.window])
        .collect();
    let t = Instant::now();
    for (i, w) in windows.iter().enumerate() {
        ctx.tracer.time("hmm.score", i as u64, None, || std::hint::black_box(hmm.score_events(w)));
    }
    let score_s = t.elapsed().as_secs_f64();

    let totals = ctx.tracer.totals();
    let stage = |name: &str| totals.get(name).map_or(0.0, |v| v.0);
    let wsvm_stages = [
        "cluster.fit",
        "cfg.infer",
        "cfg.weights",
        "cluster.encode_sequence",
        "svm.coalesce",
        "svm.cv",
        "svm.smo",
    ];
    let stage_sum: f64 = wsvm_stages.iter().map(|s| stage(s)).sum();
    let l = &mut report.per_layer;
    l.insert("trace.parse_s", stage("trace.parse"));
    l.insert("cluster.fit_s", stage("cluster.fit"));
    l.insert("cfg.infer_s", stage("cfg.infer"));
    l.insert("cfg.weights_s", stage("cfg.weights"));
    l.insert("cluster.encode_sequence_s", stage("cluster.encode_sequence"));
    l.insert("svm.cv_s", stage("svm.cv"));
    l.insert("svm.smo_s", stage("svm.smo"));
    l.insert("hmm.prelude_s", stage("hmm.prelude"));
    l.insert("hmm.bw_s", stage("hmm.bw"));
    l.insert("hmm.score_us", score_s * 1e6 / windows.len().max(1) as f64);
    l.insert("train.stage_sum_ratio", stage_sum / whole_s);
    l.insert("trace.overhead", stage("train.wsvm") / untraced_s - 1.0);
    l.insert("ckpt.writes", (obs_counter("ckpt.writes") - writes) as f64);
    l.insert("ckpt.bytes", (obs_counter("ckpt.bytes") - bytes) as f64);
    l.insert("ckpt.overhead_s", ckpt_s - whole_s);
    Ok(())
}

fn accuracy(model: &[u8], held_out: &[PartitionedEvent], malicious: &[PartitionedEvent]) -> f64 {
    let text = String::from_utf8_lossy(model);
    load_classifier(&text).map_or(0.0, |c| c.evaluate(held_out, malicious).metrics().acc)
}

pub fn run(ctx: &mut Ctx) -> Result<Report, String> {
    let seed = ctx.opts.seed;
    let scenario = inputs::scenario("vim_reverse_tcp");
    let params = GenParams::paper();
    let mut report = Report::default();

    // Set-up: generating and writing the analyst's input logs, one
    // directory per dataset.
    let dirs: Vec<PathBuf> = (0..DATASETS)
        .map(|d| ctx.dir(&format!("data{d}")))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut setup_s = Vec::new();
    let mut datasets = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        datasets = dirs
            .iter()
            .enumerate()
            .map(|(d, dir)| {
                let data_seed = inputs::derive_seed(seed, 2 + d as u64);
                inputs::write_training_logs(&scenario, &params, BENIGN_TRAIN, data_seed, dir)
            })
            .collect::<Result<_, _>>()
            .map_err(|e| format!("writing training logs: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
    }

    // Rounds of the three `leaps train` invocations, each round on the
    // next dataset, until time is up.
    let models = ctx.dir("models").map_err(|e| e.to_string())?;
    let mut runs: Vec<(usize, Kind, Invocation)> = Vec::new();
    let host_before = procfs::steal_ticks().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || started.elapsed().as_secs() < ctx.opts.seconds {
        let d = round % DATASETS;
        for kind in Kind::ALL {
            let out = models.join(format!("{d}-{}.model", kind.label()));
            let inv = leaps_train(ctx, kind, &datasets[d], &out)?;
            report.check(inv.usage.code == Some(0) && !inv.model.is_empty(), || {
                format!("leaps train ({}) exited with {:?}", kind.label(), inv.usage.code)
            });
            runs.push((d, kind, inv));
        }
        round += 1;
    }
    let host_after = procfs::steal_ticks().map_err(|e| e.to_string())?;
    let steal = procfs::steal_share(host_before, host_after);
    // Per dataset: every WSVM model, checkpointed or not, is the first
    // WSVM model byte for byte; every HMM model the first HMM model.
    let model = |d: usize, kind: Kind| {
        let first = runs.iter().find(|(rd, k, _)| *rd == d && *k == kind);
        first.map(|(_, _, inv)| inv.model.clone()).unwrap_or_default()
    };
    for (d, kind, inv) in &runs {
        let reference = model(*d, if *kind == Kind::Hmm { Kind::Hmm } else { Kind::Wsvm });
        report.check(inv.model == reference, || {
            format!("dataset {d}: {} model differs from its first model", kind.label())
        });
    }
    // Per kind: the median over each dataset's invocations, then the
    // median over the datasets, so a run that fits in more rounds weighs
    // every dataset the same and one disturbed invocation moves nothing.
    let per_kind = |kind: Kind, of: fn(&Invocation) -> f64| {
        let per_dataset: Vec<f64> = (0..DATASETS)
            .filter_map(|d| {
                let v: Vec<f64> = runs
                    .iter()
                    .filter(|(rd, k, _)| *rd == d && *k == kind)
                    .map(|(_, _, i)| of(i))
                    .collect();
                median(&v)
            })
            .collect();
        median(&per_dataset).expect("every dataset was trained on")
    };
    // Held-out accuracy of each dataset's models: fixed for a seed, so it
    // shows a change that alters results.
    let (mut svm_acc, mut hmm_acc) = (Vec::new(), Vec::new());
    for (d, logs) in datasets.iter().enumerate() {
        let held_out = inputs::partition(&logs.held_out_raw);
        let malicious = inputs::partition(&logs.malicious_raw);
        svm_acc.push(accuracy(&model(d, Kind::Wsvm), &held_out, &malicious));
        hmm_acc.push(accuracy(&model(d, Kind::Hmm), &held_out, &malicious));
    }
    eprintln!("perfbench: held-out accuracy by dataset: wsvm {svm_acc:.4?}, hmm {hmm_acc:.4?}");
    eprintln!("perfbench: host steal share over the timed rounds {steal:.4}");
    for kind in Kind::ALL {
        let walls: Vec<f64> =
            runs.iter().filter(|(_, k, _)| *k == kind).map(|(_, _, i)| i.wall_s).collect();
        eprintln!("perfbench: {} wall s by round {walls:.3?}", kind.label());
    }
    let wall = |kind: Kind| per_kind(kind, |i| i.wall_s);
    let cpu = |kind: Kind| per_kind(kind, |i| i.usage.cpu_s);
    let events_per_train =
        datasets.iter().map(|l| (l.events.0 + l.events.1) as f64).sum::<f64>() / DATASETS as f64;
    let peak = runs.iter().map(|(_, _, i)| i.usage.peak_rss_mb).fold(0.0, f64::max);

    let e = &mut report.end_to_end;
    e.insert("setup_s", median(&setup_s).expect("set-up ran"));
    e.insert("result_ms", (wall(Kind::Wsvm) + wall(Kind::Checkpointed) + wall(Kind::Hmm)) * 1e3);
    let cpu_s = cpu(Kind::Wsvm) + cpu(Kind::Checkpointed) + cpu(Kind::Hmm);
    e.insert("cpu_us_per_event", cpu_s * 1e6 / (3.0 * events_per_train));
    e.insert("peak_rss_mb", peak);

    if ctx.opts.trace {
        let (wsvm_model, hmm_model) = (model(0, Kind::Wsvm), model(0, Kind::Hmm));
        let l = &mut report.per_layer;
        l.insert("train.wsvm_s", wall(Kind::Wsvm));
        l.insert("train.ckpt_s", wall(Kind::Checkpointed));
        l.insert("train.hmm_s", wall(Kind::Hmm));
        l.insert("train.cpu_s", cpu(Kind::Wsvm));
        l.insert("train.threads", THREADS as f64);
        l.insert("host.steal_share", steal);
        l.insert("svm.accuracy", median(&svm_acc).expect("every dataset was scored"));
        l.insert("hmm.accuracy", median(&hmm_acc).expect("every dataset was scored"));
        traced(ctx, &datasets[0], &wsvm_model, &hmm_model, &mut report)?;
    }
    Ok(report)
}
