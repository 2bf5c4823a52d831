//! Generic reduction-problem decomposition (the paper's §1 and §3
//! remarks): SpMV is one instance of a *reduction* — atomic tasks consume
//! input elements and contribute to output elements. The fine-grain model
//! applies unchanged: one vertex per task, one net per input (expand), one
//! net per output (fold).
//!
//! Without the symmetric-partitioning requirement no consistency condition
//! is needed; free inputs/outputs are assigned to any connected part at
//! zero extra cost. Pre-assigned inputs/outputs are supported through
//! zero-weight **part vertices** fixed to their processor and pinned to
//! the corresponding nets, exactly as the paper prescribes.

use fgh_hypergraph::{connectivity_sets, HypergraphBuilder};
use fgh_partition::recursive::partition_hypergraph_with;
use fgh_partition::{MultilevelDriver, PartitionConfig};

use crate::{ModelError, Result};

/// One atomic task of a reduction: it reads some inputs and accumulates
/// into some outputs. (For SpMV: task `(i,j)` reads `x_j`, accumulates
/// `y_i`.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    /// Input element ids this task reads.
    pub inputs: Vec<u32>,
    /// Output element ids this task accumulates into.
    pub outputs: Vec<u32>,
    /// Computational weight.
    pub weight: u32,
}

/// A reduction problem: tasks over `num_inputs` inputs and `num_outputs`
/// outputs, with optional pre-assigned element placements.
#[derive(Debug, Clone)]
pub struct ReductionProblem {
    /// Number of input elements.
    pub num_inputs: u32,
    /// Number of output elements.
    pub num_outputs: u32,
    /// The atomic tasks.
    pub tasks: Vec<Task>,
    /// `input_owner[i] != u32::MAX` pre-assigns input `i` to a processor.
    pub input_owner: Vec<u32>,
    /// `output_owner[o] != u32::MAX` pre-assigns output `o`.
    pub output_owner: Vec<u32>,
}

/// Free (not pre-assigned) marker.
pub const UNASSIGNED: u32 = u32::MAX;

/// Result of decomposing a reduction problem.
#[derive(Debug, Clone)]
pub struct ReductionDecomposition {
    /// Processor of each task.
    pub task_owner: Vec<u32>,
    /// Processor of each input element (pre-assignments preserved).
    pub input_owner: Vec<u32>,
    /// Processor of each output element.
    pub output_owner: Vec<u32>,
    /// Words sent distributing inputs (expand).
    pub expand_volume: u64,
    /// Words sent accumulating outputs (fold).
    pub fold_volume: u64,
    /// Percent task-weight imbalance.
    pub imbalance_percent: f64,
}

impl ReductionProblem {
    /// A problem with no pre-assignments.
    pub fn new(num_inputs: u32, num_outputs: u32, tasks: Vec<Task>) -> Self {
        ReductionProblem {
            num_inputs,
            num_outputs,
            tasks,
            input_owner: vec![UNASSIGNED; num_inputs as usize],
            output_owner: vec![UNASSIGNED; num_outputs as usize],
        }
    }

    /// Validates element ids.
    pub fn validate(&self) -> Result<()> {
        for (t, task) in self.tasks.iter().enumerate() {
            if let Some(&i) = task.inputs.iter().find(|&&i| i >= self.num_inputs) {
                return Err(ModelError::Invalid(format!(
                    "task {t}: input {i} out of range"
                )));
            }
            if let Some(&o) = task.outputs.iter().find(|&&o| o >= self.num_outputs) {
                return Err(ModelError::Invalid(format!(
                    "task {t}: output {o} out of range"
                )));
            }
        }
        Ok(())
    }

    /// Decomposes the reduction over `k` processors with the fine-grain
    /// model. Pre-assigned elements become fixed part vertices.
    pub fn decompose(&self, k: u32, cfg: &PartitionConfig) -> Result<ReductionDecomposition> {
        self.validate()?;
        if k == 0 {
            return Err(ModelError::Invalid("K must be >= 1".into()));
        }
        let nt = self.tasks.len() as u32; // lint: checked-cast — task count <= nnz, u32-bounded

        let mut builder = HypergraphBuilder::new();
        for task in &self.tasks {
            builder.add_vertex(task.weight);
        }
        // Part vertices (zero weight) for processors referenced by
        // pre-assignments; fixed to their part during partitioning.
        let has_preassign = self
            .input_owner
            .iter()
            .chain(&self.output_owner)
            .any(|&p| p != UNASSIGNED);
        let mut part_vertex = vec![u32::MAX; k as usize];
        let mut fixed: Vec<u32> = vec![UNASSIGNED; nt as usize];
        if has_preassign {
            for p in 0..k {
                let v = builder.add_vertex(0);
                part_vertex[p as usize] = v;
                fixed.push(p);
            }
        }

        // Input nets then output nets.
        let mut input_pins: Vec<Vec<u32>> = vec![Vec::new(); self.num_inputs as usize];
        let mut output_pins: Vec<Vec<u32>> = vec![Vec::new(); self.num_outputs as usize];
        for (t, task) in self.tasks.iter().enumerate() {
            for &i in &task.inputs {
                input_pins[i as usize].push(t as u32); // lint: checked-cast — t < task count, u32-bounded
            }
            for &o in &task.outputs {
                output_pins[o as usize].push(t as u32); // lint: checked-cast — t < task count, u32-bounded
            }
        }
        for (i, mut pins) in input_pins.into_iter().enumerate() {
            let owner = self.input_owner[i];
            if owner != UNASSIGNED {
                pins.push(part_vertex[owner as usize]);
            }
            builder.add_net(pins);
        }
        for (o, mut pins) in output_pins.into_iter().enumerate() {
            let owner = self.output_owner[o];
            if owner != UNASSIGNED {
                pins.push(part_vertex[owner as usize]);
            }
            builder.add_net(pins);
        }

        let hg = builder.build()?;
        let result = partition_hypergraph_with(
            &mut MultilevelDriver::new(cfg.clone()),
            &hg,
            k,
            if has_preassign { Some(&fixed) } else { None },
        )?;
        let partition = &result.partition;

        let task_owner: Vec<u32> = (0..nt).map(|t| partition.part(t)).collect();

        // Element placement: pre-assignment wins; free elements go to any
        // connected part (first of Λ; cost λ−1 either way), defaulting to
        // part 0 for untouched elements.
        let sets = connectivity_sets(&hg, partition);
        let ni = self.num_inputs as usize;
        let mut input_owner = Vec::with_capacity(ni);
        let mut expand_volume = 0u64;
        for (i, set) in sets.iter().enumerate().take(ni) {
            let owner = if self.input_owner[i] != UNASSIGNED {
                self.input_owner[i]
            } else {
                set.first().copied().unwrap_or(0)
            };
            let lambda = set.len() as u64;
            expand_volume += if set.contains(&owner) {
                lambda - 1
            } else {
                lambda
            };
            input_owner.push(owner);
        }
        let mut output_owner = Vec::with_capacity(self.num_outputs as usize);
        let mut fold_volume = 0u64;
        for o in 0..self.num_outputs as usize {
            let set = &sets[ni + o];
            let owner = if self.output_owner[o] != UNASSIGNED {
                self.output_owner[o]
            } else {
                set.first().copied().unwrap_or(0)
            };
            let lambda = set.len() as u64;
            fold_volume += if set.contains(&owner) {
                lambda - 1
            } else {
                lambda
            };
            output_owner.push(owner);
        }

        Ok(ReductionDecomposition {
            task_owner,
            input_owner,
            output_owner,
            expand_volume,
            fold_volume,
            imbalance_percent: result.imbalance_percent,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two groups of tasks sharing inputs within each group, one shared
    /// input across groups.
    fn sample() -> ReductionProblem {
        let mut tasks = Vec::new();
        for t in 0..8u32 {
            let group = t / 4;
            tasks.push(Task {
                inputs: vec![group * 2, group * 2 + 1, 4], // input 4 shared
                outputs: vec![t / 2],
                weight: 1,
            });
        }
        ReductionProblem::new(5, 4, tasks)
    }

    #[test]
    fn validate_catches_bad_ids() {
        let mut p = sample();
        p.tasks[0].inputs.push(99);
        assert!(p.validate().is_err());
    }

    #[test]
    fn decompose_balances_tasks() {
        let p = sample();
        let d = p.decompose(2, &PartitionConfig::with_seed(1)).unwrap();
        let c0 = d.task_owner.iter().filter(|&&o| o == 0).count();
        assert_eq!(c0, 4, "8 unit tasks over 2 parts");
        assert!(d.imbalance_percent <= 1e-9);
        // The shared input 4 must be expanded to the other part: >= 1 word.
        assert!(d.expand_volume >= 1);
    }

    #[test]
    fn preassigned_inputs_fix_owner() {
        let mut p = sample();
        p.input_owner[0] = 1;
        p.output_owner[3] = 0;
        let d = p.decompose(2, &PartitionConfig::with_seed(2)).unwrap();
        assert_eq!(d.input_owner[0], 1);
        assert_eq!(d.output_owner[3], 0);
    }

    #[test]
    fn k1_no_communication() {
        let p = sample();
        let d = p.decompose(1, &PartitionConfig::default()).unwrap();
        assert_eq!(d.expand_volume, 0);
        assert_eq!(d.fold_volume, 0);
    }

    #[test]
    fn free_elements_land_on_connected_parts() {
        let p = sample();
        let d = p.decompose(2, &PartitionConfig::with_seed(3)).unwrap();
        // Input 0 is used only by group-0 tasks; its owner must be the
        // part holding those tasks.
        let group0_part = d.task_owner[0];
        assert!(d.task_owner[..4].iter().all(|&o| o == group0_part));
        assert_eq!(d.input_owner[0], group0_part);
    }

    #[test]
    fn spmv_as_reduction_matches_fine_grain_semantics() {
        // y = Ax for a 2x2 dense matrix: 4 tasks, input j, output i.
        let tasks = vec![
            Task {
                inputs: vec![0],
                outputs: vec![0],
                weight: 1,
            },
            Task {
                inputs: vec![1],
                outputs: vec![0],
                weight: 1,
            },
            Task {
                inputs: vec![0],
                outputs: vec![1],
                weight: 1,
            },
            Task {
                inputs: vec![1],
                outputs: vec![1],
                weight: 1,
            },
        ];
        let p = ReductionProblem::new(2, 2, tasks);
        let d = p.decompose(2, &PartitionConfig::with_seed(4)).unwrap();
        // Perfect balance; total comm = expand + fold must be exactly the
        // connectivity-1 cutsize of the 4-vertex model, which is 2 for any
        // balanced split of a dense 2x2 (each cut net costs 1).
        assert_eq!(d.task_owner.iter().filter(|&&o| o == 0).count(), 2);
        assert!(d.expand_volume + d.fold_volume >= 2);
    }
}
