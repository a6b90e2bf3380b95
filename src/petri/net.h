#ifndef ELASTICORE_PETRI_NET_H_
#define ELASTICORE_PETRI_NET_H_

#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace elastic::petri {

using PlaceId = int;
using TransitionId = int;

/// Variable binding produced when a transition inspects its input tokens:
/// each input arc binds the front token of its place to a named variable.
class Binding {
 public:
  void Bind(const std::string& name, double value);
  /// Unbinds every variable, keeping the storage for the next binding.
  void Clear() { vars_.clear(); }
  /// Value of a bound variable; aborts when the name is unknown.
  double Get(const std::string& name) const;
  bool Has(const std::string& name) const;

 private:
  std::vector<std::pair<std::string, double>> vars_;
};

/// Guard: first-order condition over the binding (the net inscription R of
/// the paper's formal model, Section III-A).
using Guard = std::function<bool(const Binding&)>;

/// Output arc expression: computes the produced token from the binding.
using Expr = std::function<double(const Binding&)>;

/// A Predicate/Transition (PrT) Petri net with valued tokens.
///
/// This is the abstract model of Section III: places hold tokens carrying
/// values (CPU load, allocated core counts); transitions have guards over
/// the values bound from their input places and produce new tokens through
/// arc expressions. The net structure {P, T, F} is exposed as Pre/Post
/// incidence matrices so tests can verify AT = Post - Pre exactly as the
/// paper presents it.
class Net {
 public:
  Net() = default;

  /// Adds a place. Names must be unique.
  PlaceId AddPlace(std::string name);

  /// Adds a transition with a guard (empty guard = always true). Transitions
  /// are considered for firing in creation order.
  TransitionId AddTransition(std::string name, Guard guard = nullptr);

  /// Connects place -> transition; the front token of the place is bound to
  /// `var` during guard evaluation and consumed on firing.
  void AddInputArc(PlaceId place, TransitionId transition, std::string var);

  /// Connects transition -> place; on firing, a token with value expr(b) is
  /// appended to the place.
  void AddOutputArc(TransitionId transition, PlaceId place, Expr expr);

  /// Sets the initial marking helper: appends a token to a place.
  void AddToken(PlaceId place, double value);

  /// Removes all tokens from a place (used by monitoring loops that refresh
  /// a measurement place with the current counter value every round).
  void ClearPlace(PlaceId place);

  /// Convenience: ClearPlace followed by AddToken.
  void SetSingleToken(PlaceId place, double value);

  /// Tokens currently in a place (front = next to be consumed).
  const std::deque<double>& Marking(PlaceId place) const;

  /// Total number of tokens across all places.
  int64_t TotalTokens() const;

  /// True when every input place of the transition has a token and the guard
  /// accepts the binding.
  bool IsEnabled(TransitionId transition) const;

  /// Fires the transition if enabled: consumes one token per input arc,
  /// produces one token per output arc. Returns false when not enabled.
  bool Fire(TransitionId transition);

  /// Fires the first enabled transition (in creation order); returns its id
  /// or nullopt when the net is quiescent.
  std::optional<TransitionId> StepOnce();

  /// Fires transitions until quiescence or `max_steps`. Returns the fired
  /// sequence.
  std::vector<TransitionId> RunToQuiescence(int max_steps);

  const std::string& PlaceName(PlaceId place) const;
  const std::string& TransitionName(TransitionId transition) const;

  /// Place id by name; aborts when absent (places have unique names).
  PlaceId FindPlace(const std::string& name) const;
  int num_places() const { return static_cast<int>(places_.size()); }
  int num_transitions() const { return static_cast<int>(transitions_.size()); }

  /// Pre(P x T): Pre[p][t] = number of arcs from place p into transition t.
  std::vector<std::vector<int>> PreMatrix() const;
  /// Post(T x P) transposed to (P x T) for comparison: Post[p][t] = arcs
  /// from transition t into place p.
  std::vector<std::vector<int>> PostMatrix() const;
  /// Incidence AT = Post - Pre, oriented as (P x T).
  std::vector<std::vector<int>> IncidenceMatrix() const;

 private:
  struct InputArc {
    PlaceId place;
    std::string var;
  };
  struct OutputArc {
    PlaceId place;
    Expr expr;
  };
  struct Place {
    std::string name;
    std::deque<double> tokens;
  };
  struct Transition {
    std::string name;
    Guard guard;
    std::vector<InputArc> inputs;
    std::vector<OutputArc> outputs;
  };

  /// Binds the front tokens of the input places into `binding` (cleared
  /// first); false when some input place is empty or the guard rejects the
  /// binding.
  bool TryBind(const Transition& t, Binding* binding) const;
  /// Consumes one token per input arc and produces the output tokens from
  /// `binding` (captured before consumption).
  void FireWith(Transition& t, const Binding& binding);

  std::vector<Place> places_;
  std::vector<Transition> transitions_;
  /// Reused by Fire/StepOnce, so a monitoring round binds without
  /// allocating.
  Binding scratch_;
};

}  // namespace elastic::petri

#endif  // ELASTICORE_PETRI_NET_H_
