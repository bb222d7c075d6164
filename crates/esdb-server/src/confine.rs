//! Tenant confinement for SQL arriving over the wire.
//!
//! `/v1/write` and `/v1/get` carry the tenant id as an explicit field,
//! so the server can compare it against the authenticated identity
//! directly. `/v1/query` and `/v1/aggregate` carry free-form SQL, so
//! confinement is decided on the parsed filter: a non-admin token may
//! only run queries whose `WHERE` clause provably restricts
//! `tenant_id` to the token's own tenant. Anything else — no tenant
//! predicate, another tenant's id, or an `OR` branch that escapes the
//! predicate — is rejected with 403 before the engine sees it.
//!
//! The check is *conservative*: it never admits a filter that could
//! match another tenant's row, and it may reject exotic-but-safe
//! filters (e.g. float-typed tenant literals). Rejection is loud
//! (403 + `forbidden`), so a false negative is an inconvenience, never
//! a leak.

use crate::wire::WireError;
use esdb_common::TenantId;
use esdb_doc::FieldValue;
use esdb_query::{parse_sql, Bound, Expr};

/// The virtual routing column queries filter tenants by (see
/// `Document::get`).
const TENANT_COL: &str = "tenant_id";

/// Parses `sql` and checks its filter is confined to `tenant`.
///
/// Returns the engine's parse error (as a 400) when the SQL does not
/// parse, and a 403 `forbidden` error when it parses but is not
/// provably confined.
pub fn ensure_confined(sql: &str, tenant: TenantId) -> Result<(), WireError> {
    let query = parse_sql(sql).map_err(|e| WireError::from_engine(&e))?;
    if filter_confined_to(&query.filter, tenant) {
        Ok(())
    } else {
        Err(WireError::new(
            "forbidden",
            format!(
                "query must be confined to tenant_id = {} for this token",
                tenant.0
            ),
        ))
    }
}

/// `true` iff no document with a different tenant id can satisfy
/// `filter` (under [`Expr::matches`] semantics).
///
/// * `tenant_id = t` / `tenant_id IN (t)` / `tenant_id BETWEEN t AND t`
///   confine directly.
/// * `AND` confines when *any* conjunct does.
/// * `OR` confines only when *every* branch does.
/// * Everything else (including `Ne`, open ranges, and filters that
///   never mention `tenant_id`) does not confine.
pub(crate) fn filter_confined_to(filter: &Expr, tenant: TenantId) -> bool {
    match filter {
        Expr::Eq(col, v) => col == TENANT_COL && value_is_tenant(v, tenant),
        Expr::In(col, vs) => {
            col == TENANT_COL && !vs.is_empty() && vs.iter().all(|v| value_is_tenant(v, tenant))
        }
        Expr::Range(col, lo, hi) => {
            col == TENANT_COL
                && matches!(lo, Bound::Included(v) if value_is_tenant(v, tenant))
                && matches!(hi, Bound::Included(v) if value_is_tenant(v, tenant))
        }
        Expr::And(cs) => cs.iter().any(|c| filter_confined_to(c, tenant)),
        Expr::Or(cs) => !cs.is_empty() && cs.iter().all(|c| filter_confined_to(c, tenant)),
        _ => false,
    }
}

/// Exact-integer equality with the tenant id. Floats are deliberately
/// rejected: `values_eq` compares them through `f64`, which is not
/// injective over the full id range, so they cannot prove confinement.
fn value_is_tenant(v: &FieldValue, tenant: TenantId) -> bool {
    match v {
        FieldValue::Int(i) => u64::try_from(*i) == Ok(tenant.0),
        FieldValue::Timestamp(t) => *t == tenant.0 && i64::try_from(tenant.0).is_ok(),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn confined(sql: &str, tenant: u64) -> bool {
        ensure_confined(sql, TenantId(tenant)).is_ok()
    }

    #[test]
    fn accepts_own_tenant_predicates() {
        assert!(confined(
            "SELECT * FROM transaction_logs WHERE tenant_id = 7",
            7
        ));
        assert!(confined(
            "SELECT * FROM transaction_logs WHERE tenant_id = 7 AND status = 1",
            7
        ));
        assert!(confined(
            "SELECT * FROM transaction_logs WHERE status = 1 AND tenant_id IN (7)",
            7
        ));
        assert!(confined(
            "SELECT * FROM transaction_logs WHERE tenant_id BETWEEN 7 AND 7",
            7
        ));
        // Both OR branches pin the tenant.
        assert!(confined(
            "SELECT * FROM transaction_logs \
             WHERE (tenant_id = 7 AND status = 1) OR (tenant_id = 7 AND status = 2)",
            7
        ));
        assert!(confined(
            "SELECT COUNT(*) FROM transaction_logs WHERE tenant_id = 7 GROUP BY status",
            7
        ));
    }

    #[test]
    fn rejects_escapes() {
        // Another tenant.
        assert!(!confined(
            "SELECT * FROM transaction_logs WHERE tenant_id = 8",
            7
        ));
        // No tenant predicate at all.
        assert!(!confined("SELECT * FROM transaction_logs", 7));
        assert!(!confined(
            "SELECT * FROM transaction_logs WHERE status = 1",
            7
        ));
        // IN widens past the token's tenant.
        assert!(!confined(
            "SELECT * FROM transaction_logs WHERE tenant_id IN (7, 8)",
            7
        ));
        // One OR branch escapes.
        assert!(!confined(
            "SELECT * FROM transaction_logs WHERE tenant_id = 7 OR status = 1",
            7
        ));
        // Ne and open ranges are not confinement.
        assert!(!confined(
            "SELECT * FROM transaction_logs WHERE tenant_id != 8",
            7
        ));
        assert!(!confined(
            "SELECT * FROM transaction_logs WHERE tenant_id >= 7",
            7
        ));
        assert!(!confined(
            "SELECT * FROM transaction_logs WHERE tenant_id BETWEEN 7 AND 8",
            7
        ));
    }

    #[test]
    fn parse_errors_surface_as_parse_not_forbidden() {
        let err = ensure_confined("SELEC nonsense", TenantId(7)).unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn float_literals_never_confine() {
        let t = TenantId(1);
        assert!(!value_is_tenant(&FieldValue::Float(1.0), t));
        assert!(value_is_tenant(&FieldValue::Int(1), t));
        assert!(value_is_tenant(&FieldValue::Timestamp(1), t));
        assert!(!value_is_tenant(&FieldValue::Int(-1), t));
    }
}
