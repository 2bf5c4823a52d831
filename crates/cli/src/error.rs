//! CLI error type carrying the process exit code.
//!
//! Exit-code contract (documented in the README):
//!
//! * `0` — success (a degraded decomposition still exits 0 unless
//!   `--strict` is given; the degradation reason goes to stderr),
//! * `1` — internal error (partitioner defect, worker panic),
//! * `2` — bad input: unparseable matrix file, bad flags, `K = 0`, ...
//! * `3` — infeasible request rejected under `--strict` (balance target
//!   cannot be met),
//! * `4` — a resource budget was exhausted under `--strict`,
//! * `5` — the chosen model has no big-index (u64) path for a matrix
//!   that needs one; the stderr hint names the width-capable models.

use fgh_core::{ErrorCategory, FghError, Model};

/// An error plus the exit code the process should return.
#[derive(Debug)]
pub struct CmdError {
    /// Process exit code (1–4, see module docs).
    pub code: u8,
    /// Message printed to stderr.
    pub msg: String,
}

impl CmdError {
    /// An error with an explicit exit code.
    pub fn new(code: u8, msg: impl Into<String>) -> Self {
        CmdError {
            code,
            msg: msg.into(),
        }
    }
}

/// Plain-string errors come from flag parsing, file loading, and similar
/// user-facing input problems — exit code 2.
impl From<String> for CmdError {
    fn from(msg: String) -> Self {
        CmdError { code: 2, msg }
    }
}

/// Pipeline errors map through [`FghError::category`], except
/// [`FghError::UnsupportedWidth`], which gets its own exit code (5) and a
/// hint naming the models that do run on the big-index path — the fix is
/// almost always `--model`, not a different matrix.
impl From<FghError> for CmdError {
    fn from(e: FghError) -> Self {
        if let FghError::UnsupportedWidth { .. } = &e {
            return CmdError {
                code: 5,
                msg: format!(
                    "{e}\nhint: width-capable models: {}",
                    Model::wide_spmv_names()
                ),
            };
        }
        let code = match e.category() {
            ErrorCategory::BadInput => 2,
            ErrorCategory::Infeasible => 3,
            ErrorCategory::Budget => 4,
            ErrorCategory::Internal => 1,
        };
        CmdError {
            code,
            msg: e.to_string(),
        }
    }
}

/// Result alias for subcommands.
pub type CmdResult = Result<(), CmdError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_follow_categories() {
        assert_eq!(CmdError::from("bad flag".to_string()).code, 2);
        assert_eq!(CmdError::from(FghError::InvalidInput("k".into())).code, 2);
        assert_eq!(CmdError::from(FghError::Infeasible("eps".into())).code, 3);
        assert_eq!(
            CmdError::from(FghError::BudgetExhausted("wall".into())).code,
            4
        );
        assert_eq!(
            CmdError::from(FghError::Model(fgh_core::ModelError::Invalid("x".into()))).code,
            1
        );
    }

    #[test]
    fn unsupported_width_gets_exit_5_and_a_model_hint() {
        let e = CmdError::from(FghError::UnsupportedWidth {
            model: "checkerboard-2d",
            width: fgh_sparse::IndexWidth::U64,
        });
        assert_eq!(e.code, 5);
        assert!(e.msg.contains("checkerboard-2d"), "{}", e.msg);
        assert!(e.msg.contains("64-bit"), "{}", e.msg);
        for capable in [
            "graph-1d",
            "hypergraph-1d-colnet",
            "hypergraph-1d-rownet",
            "fine-grain-2d",
        ] {
            assert!(
                e.msg.contains(capable),
                "hint must name {capable}: {}",
                e.msg
            );
        }
        // The hint comes from `Model::wide_spmv_names`, byte for byte.
        assert!(
            e.msg.ends_with(
                "\nhint: width-capable models: graph-1d, hypergraph-1d-colnet, \
                 hypergraph-1d-rownet, fine-grain-2d"
            ),
            "{}",
            e.msg
        );
    }
}
