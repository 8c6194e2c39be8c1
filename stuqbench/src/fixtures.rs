//! Workload inputs, all a pure function of the seed: the paper-scale
//! PEMS04-like dataset, the seeded (untrained) model artifact, and request
//! lines cut from the dataset's test windows. Fixture generation is never
//! part of a timed phase.

use std::path::{Path, PathBuf};

use deepstuq::{DeepStuq, DeepStuqConfig};
use stuq_models::Agcrn;
use stuq_tensor::StuqRng;
use stuq_traffic::{DatasetSpec, Split, SplitDataset};

/// Sensors of the PEMS04-like graph (paper Table I).
pub const NODES: usize = 307;
/// Road segments of the PEMS04-like graph.
pub const EDGES: usize = 340;
/// Forecast horizon and history length (paper: 12 and 12).
pub const HORIZON: usize = 12;
/// MC-dropout samples per forecast (paper: 10).
pub const MC: usize = 10;

/// The paper's DeepSTUQ configuration at PEMS04 scale.
pub fn paper_config() -> DeepStuqConfig {
    DeepStuqConfig::paper(NODES, HORIZON)
}

/// A PEMS04-like series of `steps` five-minute steps.
pub fn dataset(steps: usize, seed: u64) -> SplitDataset {
    DatasetSpec::new("PEMS04-like", NODES, EDGES, steps).generate(seed)
}

/// Files a serving workload reads.
pub struct ServeFiles {
    /// Dataset artifact (scaler and window length for the server).
    pub data: PathBuf,
    /// Model artifact.
    pub model: PathBuf,
}

/// Writes the dataset and a seeded, untrained paper-config model under
/// `dir`. Serving cost does not depend on the weights' values, so the
/// model skips training.
pub fn write_serve_files(ds: &SplitDataset, seed: u64, dir: &Path) -> ServeFiles {
    std::fs::create_dir_all(dir).expect("create the fixture directory");
    let files = ServeFiles { data: dir.join("data.stuqd"), model: dir.join("model.stuq") };
    stuq_traffic::save_dataset(ds.data(), &files.data).expect("write the dataset artifact");
    let mut rng = StuqRng::new(seed ^ 0x05EE_D0FA_0DE1);
    let model = DeepStuq::from_parts(Agcrn::new(paper_config().base, &mut rng), 1.0, MC);
    deepstuq::save_model(&model, &files.model).expect("write the model artifact");
    files
}

/// Test-split window starts.
pub fn test_starts(ds: &SplitDataset) -> Vec<usize> {
    ds.window_starts(Split::Test)
}

/// The raw-unit input window starting at `start`, rendered as the
/// protocol's time-major `x` matrix.
pub fn x_json(ds: &SplitDataset, start: usize) -> String {
    let data = ds.data();
    let rows: Vec<String> = (start..start + ds.t_h())
        .map(|t| {
            let cells: Vec<String> =
                (0..data.n_nodes()).map(|i| format!("{}", data.get(t, i))).collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    format!("[{}]", rows.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_time_major_raw_values() {
        let ds = DatasetSpec::new("tiny", 12, 14, 150).generate(3);
        let start = test_starts(&ds)[0];
        let x = stuq_serve::json::parse(&x_json(&ds, start)).unwrap();
        let rows = x.as_arr().unwrap();
        assert_eq!(rows.len(), ds.t_h());
        assert_eq!(rows[0].as_arr().unwrap().len(), 12);
        let cell = rows[1].as_arr().unwrap()[4].as_f64().unwrap() as f32;
        assert_eq!(cell, ds.data().get(start + 1, 4));
    }
}
