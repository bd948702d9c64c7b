//! Trade bookkeeping for the broker.

use std::collections::BTreeMap;
use std::fmt;

/// A `Display`/serde-friendly digest of the perturbation plan a released
/// answer was produced under: the numbers a settlement record or log line
/// needs, with the noise variance derived once from the plan's own scale
/// (`prc_core::optimizer::PerturbationPlan::summary` builds it).
///
/// Settlements store the digest itself; the text form is produced only
/// when a record is printed.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PlanSummary {
    /// Laplace budget `ε`.
    pub epsilon: f64,
    /// Effective (amplified) budget `ε′`.
    pub effective_epsilon: f64,
    /// Sensitivity `Δγ̂`.
    pub sensitivity: f64,
    /// Laplace noise scale `b`.
    pub noise_scale: f64,
    /// Noise variance `2b²`.
    pub noise_variance: f64,
    /// Sampling probability the plan assumes.
    pub probability: f64,
}

impl fmt::Display for PlanSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ε={} ε′={} Δ={} b={} 2b²={} p={}",
            self.epsilon,
            self.effective_epsilon,
            self.sensitivity,
            self.noise_scale,
            self.noise_variance,
            self.probability
        )
    }
}

/// One recorded sale.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TradeRecord {
    /// Monotone sequence number assigned by the ledger.
    pub sequence: u64,
    /// The purchasing consumer.
    pub buyer: String,
    /// Error bound the answer was sold at.
    pub alpha: f64,
    /// Confidence the answer was sold at.
    pub delta: f64,
    /// Price charged.
    pub price: f64,
    /// Laplace noise variance of the released answer, when the sale was
    /// settled through the broker pipeline (`None` for bare quotes
    /// recorded without a released answer).
    pub noise_variance: Option<f64>,
    /// Perturbation-plan digest of the released answer, when settled
    /// through the broker pipeline.
    pub plan: Option<PlanSummary>,
}

/// An append-only ledger of sales with revenue accounting.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TradeLedger {
    records: Vec<TradeRecord>,
}

impl TradeLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        TradeLedger::default()
    }

    /// Records one sale and returns its sequence number.
    ///
    /// # Panics
    ///
    /// Panics if `price` is negative or not finite.
    pub fn record(&mut self, buyer: &str, alpha: f64, delta: f64, price: f64) -> u64 {
        self.push(buyer.to_owned(), alpha, delta, price, None)
    }

    /// Records one pipeline settlement — a sale carrying the released
    /// answer's plan digest and, from it, its noise variance — and
    /// returns its sequence number.
    ///
    /// # Panics
    ///
    /// Panics if `price` is negative or not finite.
    pub fn record_settlement(
        &mut self,
        buyer: String,
        alpha: f64,
        delta: f64,
        price: f64,
        plan: PlanSummary,
    ) -> u64 {
        self.push(buyer, alpha, delta, price, Some(plan))
    }

    /// Appends one sale under the next sequence number and returns it.
    ///
    /// # Panics
    ///
    /// Panics if `price` is negative or not finite.
    fn push(
        &mut self,
        buyer: String,
        alpha: f64,
        delta: f64,
        price: f64,
        plan: Option<PlanSummary>,
    ) -> u64 {
        assert!(
            price.is_finite() && price >= 0.0,
            "price must be finite and non-negative, got {price}"
        );
        let sequence = self.records.len() as u64;
        self.records.push(TradeRecord {
            sequence,
            buyer,
            alpha,
            delta,
            price,
            noise_variance: plan.map(|p| p.noise_variance),
            plan,
        });
        sequence
    }

    /// Number of recorded sales.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no sale has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records, in recording order.
    pub fn records(&self) -> &[TradeRecord] {
        &self.records
    }

    /// Total revenue across all sales.
    pub fn total_revenue(&self) -> f64 {
        self.records.iter().map(|r| r.price).sum()
    }

    /// Revenue per buyer, in buyer-name order.
    pub fn revenue_by_buyer(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for r in &self.records {
            *out.entry(r.buyer.clone()).or_insert(0.0) += r.price;
        }
        out
    }

    /// Total spend of one buyer.
    pub fn buyer_spend(&self, buyer: &str) -> f64 {
        self.records
            .iter()
            .filter(|r| r.buyer == buyer)
            .map(|r| r.price)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_in_order() {
        let mut ledger = TradeLedger::new();
        assert!(ledger.is_empty());
        assert_eq!(ledger.record("alice", 0.1, 0.8, 10.0), 0);
        assert_eq!(ledger.record("bob", 0.2, 0.5, 4.0), 1);
        assert_eq!(ledger.record("alice", 0.05, 0.9, 25.0), 2);
        assert_eq!(ledger.len(), 3);
        assert_eq!(ledger.records()[1].buyer, "bob");
    }

    #[test]
    fn revenue_accounting() {
        let mut ledger = TradeLedger::new();
        ledger.record("alice", 0.1, 0.8, 10.0);
        ledger.record("bob", 0.2, 0.5, 4.0);
        ledger.record("alice", 0.05, 0.9, 25.0);
        assert!((ledger.total_revenue() - 39.0).abs() < 1e-12);
        assert!((ledger.buyer_spend("alice") - 35.0).abs() < 1e-12);
        assert_eq!(ledger.buyer_spend("carol"), 0.0);
        let by_buyer = ledger.revenue_by_buyer();
        assert_eq!(by_buyer.len(), 2);
        assert!((by_buyer["bob"] - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "price must be finite")]
    fn negative_price_panics() {
        TradeLedger::new().record("mallory", 0.1, 0.5, -1.0);
    }

    #[test]
    #[should_panic(expected = "price must be finite")]
    fn non_finite_settlement_price_panics() {
        TradeLedger::new().record_settlement("mallory".to_owned(), 0.1, 0.5, f64::NAN, digest());
    }

    fn digest() -> PlanSummary {
        PlanSummary {
            epsilon: 1.5,
            effective_epsilon: 0.9,
            sensitivity: 2.5,
            noise_scale: 2.5 / 1.5,
            noise_variance: 2.0 * (2.5 / 1.5) * (2.5 / 1.5),
            probability: 0.4,
        }
    }

    #[test]
    fn plan_summary_renders_the_golden_string() {
        assert_eq!(
            digest().to_string(),
            "ε=1.5 ε′=0.9 Δ=2.5 b=1.6666666666666667 2b²=5.555555555555556 p=0.4"
        );
        let round = PlanSummary {
            epsilon: 0.8,
            effective_epsilon: 0.125,
            sensitivity: 1.0,
            noise_scale: 1.25,
            noise_variance: 3.125,
            probability: 1.0,
        };
        assert_eq!(round.to_string(), "ε=0.8 ε′=0.125 Δ=1 b=1.25 2b²=3.125 p=1");
    }

    #[test]
    fn settlements_carry_the_released_answer_metadata() {
        let mut ledger = TradeLedger::new();
        ledger.record("alice", 0.1, 0.8, 10.0);
        let seq = ledger.record_settlement("bob".to_owned(), 0.05, 0.9, 25.0, digest());
        assert_eq!(seq, 1);
        let bare = &ledger.records()[0];
        assert_eq!(bare.sequence, 0);
        assert_eq!(bare.noise_variance, None);
        assert_eq!(bare.plan, None);
        let settled = &ledger.records()[1];
        assert_eq!(settled.sequence, 1);
        assert_eq!(settled.buyer, "bob");
        assert_eq!(settled.noise_variance, Some(digest().noise_variance));
        assert_eq!(settled.plan, Some(digest()));
        // Settlements participate in revenue accounting like any sale.
        assert!((ledger.total_revenue() - 35.0).abs() < 1e-12);
    }
}
