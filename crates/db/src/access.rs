//! Users, API keys and authentication for the shared database.
//!
//! Mirrors the paper's scheme: only registered users may upload; each user
//! generates one or more API keys at the database website; a key is either
//! a random 20-character string or, for higher security, a user-held
//! private key whose *public fingerprint* is all the server stores. Here
//! the "server" is in-process, so the keypair mode is modelled by storing
//! only a one-way fingerprint of the secret — the plaintext secret never
//! sits in the user table.

use parking_lot::RwLock;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// How an API key is stored server-side.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum KeyRecord {
    /// Plain random-string key: the server stores the string itself
    /// (the paper's default 20-character random key).
    Plain(String),
    /// Keypair-style key: the server stores only a fingerprint of the
    /// user-held secret.
    Fingerprint(u64),
}

/// A registered user.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct User {
    /// Unique username.
    pub username: String,
    /// Contact e-mail.
    pub email: String,
    /// Whether the user consented to their username appearing publicly
    /// next to their uploads (the paper's anonymity option).
    pub public_profile: bool,
    /// Active API keys.
    keys: Vec<KeyRecord>,
}

/// Authentication and registration errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthError {
    /// Username already registered.
    DuplicateUser(String),
    /// No such user.
    UnknownUser(String),
    /// API key did not match any registered user.
    InvalidKey,
}

impl std::fmt::Display for AuthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuthError::DuplicateUser(u) => write!(f, "username '{u}' is already registered"),
            AuthError::UnknownUser(u) => write!(f, "unknown user '{u}'"),
            AuthError::InvalidKey => write!(f, "invalid API key"),
        }
    }
}

impl std::error::Error for AuthError {}

/// FNV-1a fingerprint of a secret. One-way enough for a simulation: the
/// point is the *protocol* (server never stores the secret), not
/// cryptographic strength.
fn fingerprint(secret: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in secret.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The user registry with API-key authentication.
#[derive(Default)]
pub struct UserRegistry {
    inner: RwLock<HashMap<String, User>>,
}

/// Characters used in generated plain API keys.
const KEY_ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";

impl UserRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new user.
    pub fn register(
        &self,
        username: &str,
        email: &str,
        public_profile: bool,
    ) -> Result<(), AuthError> {
        let mut inner = self.inner.write();
        if inner.contains_key(username) {
            return Err(AuthError::DuplicateUser(username.to_string()));
        }
        inner.insert(
            username.to_string(),
            User {
                username: username.to_string(),
                email: email.to_string(),
                public_profile,
                keys: Vec::new(),
            },
        );
        Ok(())
    }

    /// Generate a plain 20-character API key for a user. The key string is
    /// returned to the caller and also stored server-side (the paper's
    /// default mode).
    pub fn create_api_key<R: Rng>(&self, username: &str, rng: &mut R) -> Result<String, AuthError> {
        let mut inner = self.inner.write();
        let user = inner
            .get_mut(username)
            .ok_or_else(|| AuthError::UnknownUser(username.into()))?;
        let key: String = (0..20)
            .map(|_| KEY_ALPHABET[rng.gen_range(0..KEY_ALPHABET.len())] as char)
            .collect();
        user.keys.push(KeyRecord::Plain(key.clone()));
        Ok(key)
    }

    /// Register a keypair-style key: the caller keeps `secret`; only its
    /// fingerprint is stored.
    pub fn register_keypair(&self, username: &str, secret: &str) -> Result<(), AuthError> {
        let mut inner = self.inner.write();
        let user = inner
            .get_mut(username)
            .ok_or_else(|| AuthError::UnknownUser(username.into()))?;
        user.keys.push(KeyRecord::Fingerprint(fingerprint(secret)));
        Ok(())
    }

    /// Authenticate an API key (plain or keypair secret); returns the
    /// username on success.
    pub fn authenticate(&self, key: &str) -> Result<String, AuthError> {
        let inner = self.inner.read();
        let fp = fingerprint(key);
        for user in inner.values() {
            for k in &user.keys {
                let hit = match k {
                    KeyRecord::Plain(s) => s == key,
                    KeyRecord::Fingerprint(f) => *f == fp,
                };
                if hit {
                    return Ok(user.username.clone());
                }
            }
        }
        Err(AuthError::InvalidKey)
    }

    /// Public user listing: usernames of users who opted into a public
    /// profile (what the paper's website exposes for the
    /// `user_configurations` field).
    pub fn public_users(&self) -> Vec<String> {
        let inner = self.inner.read();
        let mut names: Vec<String> = inner
            .values()
            .filter(|u| u.public_profile)
            .map(|u| u.username.clone())
            .collect();
        names.sort();
        names
    }

    /// Whether a username exists.
    pub fn exists(&self, username: &str) -> bool {
        self.inner.read().contains_key(username)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn register_and_duplicate() {
        let reg = UserRegistry::new();
        reg.register("alice", "a@x.org", true).unwrap();
        assert!(reg.exists("alice"));
        assert_eq!(
            reg.register("alice", "b@x.org", false).unwrap_err(),
            AuthError::DuplicateUser("alice".into())
        );
    }

    #[test]
    fn plain_key_authenticates() {
        let reg = UserRegistry::new();
        reg.register("alice", "a@x.org", true).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let key = reg.create_api_key("alice", &mut rng).unwrap();
        assert_eq!(key.len(), 20);
        assert_eq!(reg.authenticate(&key).unwrap(), "alice");
        assert_eq!(
            reg.authenticate("wrong-key").unwrap_err(),
            AuthError::InvalidKey
        );
    }

    #[test]
    fn multiple_keys_per_user() {
        let reg = UserRegistry::new();
        reg.register("alice", "a@x.org", true).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let k1 = reg.create_api_key("alice", &mut rng).unwrap();
        let k2 = reg.create_api_key("alice", &mut rng).unwrap();
        assert_ne!(k1, k2);
        assert_eq!(reg.authenticate(&k1).unwrap(), "alice");
        assert_eq!(reg.authenticate(&k2).unwrap(), "alice");
    }

    #[test]
    fn keypair_mode_stores_no_secret() {
        let reg = UserRegistry::new();
        reg.register("bob", "b@x.org", false).unwrap();
        reg.register_keypair("bob", "my-very-secret-value").unwrap();
        assert_eq!(reg.authenticate("my-very-secret-value").unwrap(), "bob");
        assert_eq!(
            reg.authenticate("not-the-secret").unwrap_err(),
            AuthError::InvalidKey
        );
    }

    #[test]
    fn public_users_respects_anonymity() {
        let reg = UserRegistry::new();
        reg.register("alice", "a@x.org", true).unwrap();
        reg.register("bob", "b@x.org", false).unwrap();
        assert_eq!(reg.public_users(), vec!["alice".to_string()]);
    }

    #[test]
    fn key_for_unknown_user_fails() {
        let reg = UserRegistry::new();
        let mut rng = StdRng::seed_from_u64(4);
        assert!(matches!(
            reg.create_api_key("ghost", &mut rng),
            Err(AuthError::UnknownUser(_))
        ));
    }

    #[test]
    fn fingerprint_distinguishes_inputs() {
        assert_ne!(fingerprint("a"), fingerprint("b"));
        assert_eq!(fingerprint("same"), fingerprint("same"));
    }
}
