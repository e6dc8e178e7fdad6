(** Memo analyzer (paper §4.1, Fig. 6): after optimization, checks that the
    winner linkage plan extraction follows is internally consistent — no
    dangling group references, every optimized context's winner has winners
    for all its child requests, winner cost is minimal among the context's
    alternatives ([Memo.alternatives]), delivered properties satisfy each request, and the
    best-plan linkage is acyclic. Lint-style; nothing raises.

    Rule ids: [memo/dangling-group], [memo/gexpr-ownership],
    [memo/missing-winner], [memo/linkage-arity], [memo/non-minimal-winner],
    [memo/winner-violates-request], [memo/cyclic-linkage]. *)

val check : Memolib.Memo.t -> Diagnostic.t list

(**/**)

val rule_dangling : string
val rule_ownership : string
val rule_missing_winner : string
val rule_linkage_arity : string
val rule_non_minimal : string
val rule_unsatisfied : string
val rule_cycle : string
