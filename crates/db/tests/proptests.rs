//! Property-based tests for the shared database: access-control
//! invariants and query-language round trips, through the crowd service.

use crowdtune_db::{
    parse_query, Access, CrowdService, EvalOutcome, Filter, FunctionEvaluation, MachineConfig,
    ServiceConfig,
};
use crowdtune_obs::{OpKind, RequestCtx};
use proptest::prelude::*;
use std::sync::Arc;

/// A service holding `evals` (every one for problem "P").
fn service_of(evals: Vec<FunctionEvaluation>) -> CrowdService {
    let svc = CrowdService::new(ServiceConfig::default());
    for e in evals {
        svc.insert(e).unwrap();
    }
    svc
}

/// The documents of problem "P" matching `filter` that `user` may read.
fn query(svc: &CrowdService, filter: &Filter, user: Option<&str>) -> Vec<Arc<FunctionEvaluation>> {
    let (hits, _) = svc.query("P", filter, user, RequestCtx::new(OpKind::Query, 0));
    hits.to_vec()
}

fn access_strategy() -> impl Strategy<Value = Access> {
    prop_oneof![
        Just(Access::Public),
        Just(Access::Private),
        proptest::collection::vec("[a-c]{1}", 0..3).prop_map(|with| Access::Shared { with }),
    ]
}

fn eval_strategy() -> impl Strategy<Value = FunctionEvaluation> {
    (
        "[a-c]{1}",    // owner drawn from a tiny pool
        0i64..100,     // task m
        0.0f64..100.0, // runtime
        access_strategy(),
        proptest::bool::ANY, // failed?
    )
        .prop_map(|(owner, m, runtime, access, failed)| {
            let outcome = if failed {
                EvalOutcome::Failed {
                    reason: "OOM".into(),
                }
            } else {
                EvalOutcome::single("runtime", runtime)
            };
            FunctionEvaluation::new("P", &owner)
                .task("m", m)
                .param("mb", (m % 16) + 1)
                .outcome(outcome)
                .on_machine(MachineConfig::new("cori", "haswell", 8, 32))
                .with_access(access)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Private documents are never visible to anyone but the owner, no
    /// matter what filter is used.
    #[test]
    fn private_documents_never_leak(evals in proptest::collection::vec(eval_strategy(), 1..30)) {
        let svc = service_of(evals);
        for viewer in [None, Some("a"), Some("b"), Some("c"), Some("zz")] {
            for doc in query(&svc, &Filter::True, viewer) {
                match &doc.access {
                    Access::Public => {}
                    Access::Private => prop_assert_eq!(viewer, Some(doc.owner.as_str())),
                    Access::Shared { with } => {
                        let v = viewer.expect("anonymous saw shared doc");
                        prop_assert!(
                            v == doc.owner || with.iter().any(|w| w == v),
                            "{} saw doc shared with {:?} owned by {}",
                            v, with, doc.owner
                        );
                    }
                }
            }
        }
    }

    /// Every query result actually satisfies the filter, and no readable
    /// matching document is omitted.
    #[test]
    fn query_results_sound_and_complete(
        evals in proptest::collection::vec(eval_strategy(), 1..30),
        lo in 0i64..50,
        width in 1i64..50,
    ) {
        let total = evals.len();
        let svc = service_of(evals);
        let f = Filter::Between("task.m".into(), lo as f64, (lo + width) as f64);
        let hits = query(&svc, &f, Some("a"));
        for h in &hits {
            let m = h.field("task.m").unwrap().as_f64().unwrap();
            prop_assert!(m >= lo as f64 && m < (lo + width) as f64);
        }
        // Completeness: count via an independent full scan.
        let all = query(&svc, &Filter::True, Some("a"));
        let expect = all.iter().filter(|d| f.matches(d)).count();
        prop_assert_eq!(hits.len(), expect);
        prop_assert!(all.len() <= total);
    }

    /// The text query language agrees with the equivalent typed filter.
    #[test]
    fn text_and_typed_filters_agree(
        evals in proptest::collection::vec(eval_strategy(), 1..20),
        threshold in 0i64..100,
    ) {
        let svc = service_of(evals);
        let text = parse_query(&format!("task.m >= {threshold} AND status = 'ok'")).unwrap();
        let typed = Filter::And(vec![
            Filter::Ge("task.m".into(), threshold as f64),
            Filter::Eq("status".into(), crowdtune_db::Scalar::Str("ok".into())),
        ]);
        let a = query(&svc, &text, None);
        let b = query(&svc, &typed, None);
        prop_assert_eq!(a.len(), b.len());
    }
}
