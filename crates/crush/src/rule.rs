//! CRUSH rules — small placement programs.
//!
//! A rule is the sequence of steps Ceph's CRUSH map attaches to a pool:
//! start at some subtree (`take`), choose `n` distinct subtrees of a
//! given type and descend each to a leaf device (`chooseleaf`), and
//! return the accumulated devices (`emit`).  The paper's QDMA queues are
//! "customized to incorporate rules … defined in the CRUSH map" (§IV-A):
//! replication queues run a replicated rule, erasure-coding queues an EC
//! rule with `k + m` independent targets.

use crate::bucket::BucketId;

/// One step of a rule program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleStep {
    /// Start (or restart) descent at the given bucket.
    Take(BucketId),
    /// Choose `num` distinct subtrees of type `bucket_type` from the
    /// current working set and descend each all the way to a leaf
    /// device.  `num == 0` means "as many as the caller requested"
    /// (Ceph convention).
    ChooseLeaf {
        /// How many leaves (0 = caller's request width).
        num: u32,
        /// Failure-domain type the leaves must be disjoint across.
        bucket_type: u16,
    },
    /// Append the working set to the result.
    Emit,
}

/// A named rule: `take → chooseleaf* → emit`.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Rule id (referenced by pools).
    pub id: u32,
    /// Human-readable name.
    pub name: String,
    /// The step program.
    pub steps: Vec<RuleStep>,
}

impl Rule {
    /// The standard replicated-pool rule: take the root, choose one leaf
    /// per distinct failure-domain bucket of `domain_type`.
    pub(crate) fn replicated(id: u32, root: BucketId, domain_type: u16) -> Self {
        Rule {
            id,
            name: format!("replicated-{id}"),
            steps: vec![
                RuleStep::Take(root),
                RuleStep::ChooseLeaf {
                    num: 0,
                    bucket_type: domain_type,
                },
                RuleStep::Emit,
            ],
        }
    }

    /// The standard erasure-coded-pool rule — identical shape, but pools
    /// request `k + m` positions instead of `size` replicas.
    pub(crate) fn erasure(id: u32, root: BucketId, domain_type: u16) -> Self {
        Rule {
            id,
            name: format!("erasure-{id}"),
            steps: vec![
                RuleStep::Take(root),
                RuleStep::ChooseLeaf {
                    num: 0,
                    bucket_type: domain_type,
                },
                RuleStep::Emit,
            ],
        }
    }

    /// Validate basic well-formedness: starts with `Take`, ends with
    /// `Emit`, no `Emit` before any choose step.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.steps.is_empty() {
            return Err(format!("rule {}: empty", self.id));
        }
        if !matches!(self.steps[0], RuleStep::Take(_)) {
            return Err(format!("rule {}: must start with take", self.id));
        }
        if !matches!(self.steps.last(), Some(RuleStep::Emit)) {
            return Err(format!("rule {}: must end with emit", self.id));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicated_rule_shape() {
        let r = Rule::replicated(0, -1, 1);
        assert!(r.validate().is_ok());
        assert_eq!(r.steps.len(), 3);
        assert_eq!(r.steps[0], RuleStep::Take(-1));
        assert!(matches!(
            r.steps[1],
            RuleStep::ChooseLeaf { num: 0, bucket_type: 1 }
        ));
        assert_eq!(r.steps[2], RuleStep::Emit);
    }

    #[test]
    fn validation_catches_malformed_rules() {
        let bad = Rule {
            id: 9,
            name: "bad".into(),
            steps: vec![RuleStep::Emit],
        };
        assert!(bad.validate().is_err());

        let no_emit = Rule {
            id: 10,
            name: "noemit".into(),
            steps: vec![RuleStep::Take(-1)],
        };
        assert!(no_emit.validate().is_err());

        let empty = Rule {
            id: 11,
            name: "empty".into(),
            steps: vec![],
        };
        assert!(empty.validate().is_err());
    }
}
