(** Minimal XML reader/writer used by DXL: elements, attributes and text
    nodes with the five standard entities — all that DXL messages need.
    Pretty-printing round-trips through parsing. *)

type node = Element of element | Text of string

and element = {
  tag : string;
  attrs : (string * string) list;
  children : node list;
}

val element : ?attrs:(string * string) list -> ?children:node list -> string -> element
val attr : element -> string -> string option

val attr_exn : element -> string -> string
(** Raises [Gpos_error.Error Dxl_error] when missing. *)

val child_elements : element -> element list
val find_child : element -> string -> element option
val find_child_exn : element -> string -> element
val children_named : element -> string -> element list
val text_content : element -> string

val to_string : ?header:bool -> element -> string

val add_json_escaped : Buffer.t -> element -> unit
(** Append [to_string e] escaped for the inside of a JSON string, as
    {!Gpos.Json.escape} would, without building the XML string first. *)

exception Parse_failure of string

val of_string : string -> element
(** Parse one document; declarations and comments are skipped. Raises
    [Gpos_error.Error Dxl_error] on malformed input. *)
