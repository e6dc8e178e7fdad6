(** DXL physical plan messages: the optimizer's output, consumed by the
    database system's DXL2Plan translator (here, the execution simulator).
    Round-trippable: [of_string (to_string p)] executes identically to [p].

    SubPlan scalars (internal to the legacy Planner's execution) cannot cross
    DXL and are rejected during serialization. *)

open Ir

val to_xml : Expr.plan -> Xml.element
val of_xml : Xml.element -> Expr.plan

val message : Expr.plan -> Xml.element
(** Wrap in a <dxl:DXLMessage>/<dxl:Plan> envelope. *)

val of_message : Xml.element -> Expr.plan

val to_string : Expr.plan -> string

val add_json_escaped : Buffer.t -> Expr.plan -> unit
(** Append [to_string p] escaped for the inside of a JSON string, without
    building the DXL string ({!Xml.add_json_escaped}). *)

val of_string : string -> Expr.plan
