//! Error type for frequency-oracle construction and use.

use ldp_core::CoreError;
use std::fmt;

/// Errors produced by CFO protocols.
#[derive(Debug, Clone, PartialEq)]
pub enum CfoError {
    /// The privacy parameter ε must be positive and finite.
    InvalidEpsilon(f64),
    /// The categorical domain must have at least two values.
    DomainTooSmall(usize),
    /// A user value fell outside the declared domain.
    ValueOutOfDomain {
        /// The offending value.
        value: usize,
        /// The domain size it must be below.
        domain: usize,
    },
    /// A parameter other than ε or the domain was invalid.
    InvalidParameter(String),
}

impl fmt::Display for CfoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfoError::InvalidEpsilon(eps) => {
                write!(f, "epsilon must be positive and finite, got {eps}")
            }
            CfoError::DomainTooSmall(d) => {
                write!(f, "domain must have at least 2 values, got {d}")
            }
            CfoError::ValueOutOfDomain { value, domain } => {
                write!(f, "value {value} outside domain of size {domain}")
            }
            CfoError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for CfoError {}

/// Checks a value against an oracle's domain `{0, …, domain-1}`.
pub(crate) fn check_value(value: usize, domain: usize) -> Result<(), CfoError> {
    if value >= domain {
        return Err(CfoError::ValueOutOfDomain { value, domain });
    }
    Ok(())
}

/// Parameter validation is centralized in `ldp-core` ([`ldp_core::Epsilon`]
/// and [`ldp_core::Domain`]); this impl folds its errors back into the
/// crate's established variants.
impl From<CoreError> for CfoError {
    fn from(e: CoreError) -> Self {
        match e {
            CoreError::InvalidEpsilon(eps) => CfoError::InvalidEpsilon(eps),
            CoreError::DomainTooSmall(d) => CfoError::DomainTooSmall(d),
            other => CfoError::InvalidParameter(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::Epsilon;

    #[test]
    fn core_validation_maps_to_crate_variants() {
        assert_eq!(
            CfoError::from(Epsilon::new(0.0).unwrap_err()),
            CfoError::InvalidEpsilon(0.0)
        );
        assert!(matches!(
            CfoError::from(Epsilon::new(f64::NAN).unwrap_err()),
            CfoError::InvalidEpsilon(e) if e.is_nan()
        ));
        assert_eq!(
            CfoError::from(ldp_core::Domain::new(1).unwrap_err()),
            CfoError::DomainTooSmall(1)
        );
        assert!(matches!(
            CfoError::from(CoreError::Wire("x".into())),
            CfoError::InvalidParameter(_)
        ));
    }

    #[test]
    fn check_value_bounds() {
        assert!(check_value(0, 4).is_ok());
        assert!(check_value(3, 4).is_ok());
        assert!(check_value(4, 4).is_err());
    }

    #[test]
    fn display_mentions_the_problem() {
        assert!(CfoError::InvalidEpsilon(-1.0).to_string().contains("-1"));
        assert!(CfoError::DomainTooSmall(1).to_string().contains('1'));
        let e = CfoError::ValueOutOfDomain {
            value: 9,
            domain: 4,
        };
        assert!(e.to_string().contains('9') && e.to_string().contains('4'));
    }
}
