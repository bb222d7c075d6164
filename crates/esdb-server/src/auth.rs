//! Token authentication: bearer token → tenant identity.
//!
//! Deliberately minimal — a static table configured at server start
//! (the multi-tenant isolation the paper cares about happens *after*
//! identification: tenant confinement on writes, gets, and queries
//! ([`crate::confine`]), then admission control and shard routing).
//! Tokens are opaque strings; an identity is a tenant id plus an
//! `admin` bit that unlocks the `/admin/*` endpoints and cross-tenant
//! reads and writes.

use esdb_common::TenantId;
use std::collections::HashMap;

/// The authenticated principal attached to a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Identity {
    /// Tenant this token writes and queries as.
    pub tenant: TenantId,
    /// Admin tokens may hit `/admin/*` and read/write any tenant.
    pub admin: bool,
}

/// Immutable token → identity table.
#[derive(Debug, Default, Clone)]
pub struct TokenTable {
    tokens: HashMap<String, Identity>,
}

impl TokenTable {
    /// An empty table (every request is rejected).
    pub fn new() -> Self {
        TokenTable::default()
    }

    /// Registers a tenant token.
    pub fn tenant(mut self, token: impl Into<String>, tenant: TenantId) -> Self {
        self.tokens.insert(
            token.into(),
            Identity {
                tenant,
                admin: false,
            },
        );
        self
    }

    /// Registers an admin token. Admin identities bypass tenant
    /// confinement (cross-tenant reads and writes) and the `/admin/*`
    /// auth check only; their data-plane requests still pass through
    /// admission control like any other tenant's.
    pub fn admin(mut self, token: impl Into<String>, tenant: TenantId) -> Self {
        self.tokens.insert(
            token.into(),
            Identity {
                tenant,
                admin: true,
            },
        );
        self
    }

    /// Resolves a bearer token.
    pub fn resolve(&self, token: &str) -> Option<Identity> {
        self.tokens.get(token).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_and_rejects() {
        let t = TokenTable::new()
            .tenant("tok-7", TenantId(7))
            .admin("root", TenantId(0));
        assert_eq!(
            t.resolve("tok-7"),
            Some(Identity {
                tenant: TenantId(7),
                admin: false
            })
        );
        assert!(t.resolve("root").unwrap().admin);
        assert_eq!(t.resolve("nope"), None);
        assert_eq!(t.tokens.len(), 2);
    }
}
