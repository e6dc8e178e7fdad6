(* Runtime values. Dates are stored as days since epoch. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Bool of bool
  | String of string
  | Date of int

let type_of = function
  | Null -> None
  | Int _ -> Some Dtype.Int
  | Float _ -> Some Dtype.Float
  | Bool _ -> Some Dtype.Bool
  | String _ -> Some Dtype.String
  | Date _ -> Some Dtype.Date

let is_null = function Null -> true | _ -> false

(* Total order used by sorting and histograms: Null sorts first; numeric types
   compare by value across Int/Float. *)
let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Null, _ -> -1
  | _, Null -> 1
  | Int x, Int y -> Stdlib.compare x y
  | Float x, Float y -> Stdlib.compare x y
  | Int x, Float y -> Stdlib.compare (float_of_int x) y
  | Float x, Int y -> Stdlib.compare x (float_of_int y)
  | Bool x, Bool y -> Stdlib.compare x y
  | String x, String y -> Stdlib.compare x y
  | Date x, Date y -> Stdlib.compare x y
  | Int _, _ -> -1
  | _, Int _ -> 1
  | Float _, _ -> -1
  | _, Float _ -> 1
  | Bool _, _ -> -1
  | _, Bool _ -> 1
  | String _, _ -> -1
  | _, String _ -> 1

let equal a b = compare a b = 0

let hash = function
  | Null -> 0
  | Int x -> Hashtbl.hash (1, x)
  | Float x -> if Float.is_integer x then Hashtbl.hash (1, int_of_float x) else Hashtbl.hash (2, x)
  | Bool x -> Hashtbl.hash (3, x)
  | String x -> Hashtbl.hash (4, x)
  | Date x -> Hashtbl.hash (5, x)

(* SQL three-valued comparison: None when either side is Null. *)
let sql_compare a b =
  match (a, b) with Null, _ | _, Null -> None | _ -> Some (compare a b)

let to_float = function
  | Null -> nan
  | Int x -> float_of_int x
  | Float x -> x
  | Bool b -> if b then 1.0 else 0.0
  | Date d -> float_of_int d
  | String s ->
      (* Monotone-ish embedding of strings for histogram interpolation. *)
      let v = ref 0.0 in
      for i = 0 to min 7 (String.length s - 1) do
        v := (!v *. 256.0) +. float_of_int (Char.code s.[i])
      done;
      !v

let date_to_string d =
  (* Days since 1900-01-01, rendered with a simplified proleptic calendar
     (fixed 365.2425-day years) sufficient for display purposes. *)
  let year = 1900 + (d / 365) in
  let day_of_year = d mod 365 in
  let month = (day_of_year / 31) + 1 in
  let day = (day_of_year mod 31) + 1 in
  Printf.sprintf "%04d-%02d-%02d" year month day

(* Inverse of [date_to_string]'s simplified calendar. *)
let date_of_string_opt s =
  match List.map int_of_string_opt (String.split_on_char '-' s) with
  | [ Some y; Some m; Some d ] ->
      Some (Date (((y - 1900) * 365) + ((m - 1) * 31) + (d - 1)))
  | _ -> None

let date_of_string s =
  match date_of_string_opt s with
  | Some d -> d
  | None ->
      Gpos.Gpos_error.raise_error Gpos.Gpos_error.Parse_error
        "bad date literal %S" s

let to_string = function
  | Null -> "NULL"
  | Int x -> string_of_int x
  | Float x -> Printf.sprintf "%g" x
  | Bool b -> if b then "true" else "false"
  | String s -> "'" ^ s ^ "'"
  | Date d -> date_to_string d

(* Serialization used by DXL: tagged, unambiguous, round-trippable. *)
let serialize = function
  | Null -> "null:"
  | Int x -> "int:" ^ string_of_int x
  | Float x -> Printf.sprintf "float:%h" x (* hex: exact round-trip *)
  | Bool b -> "bool:" ^ string_of_bool b
  | String s -> "string:" ^ s
  | Date d -> "date:" ^ string_of_int d

let deserialize s =
  match String.index_opt s ':' with
  | None -> Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error "bad datum %S" s
  | Some i -> (
      let tag = String.sub s 0 i in
      let payload = String.sub s (i + 1) (String.length s - i - 1) in
      match tag with
      | "null" -> Null
      | "int" -> Int (int_of_string payload)
      | "float" -> Float (float_of_string payload)
      | "bool" -> Bool (bool_of_string payload)
      | "string" -> String payload
      | "date" -> Date (int_of_string payload)
      | _ ->
          Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error "bad datum tag %S" tag)

(* Arithmetic with SQL null propagation. *)
let arith op a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> (
      match op with
      | `Add -> Int (x + y)
      | `Sub -> Int (x - y)
      | `Mul -> Int (x * y)
      | `Div -> if y = 0 then Null else Float (float_of_int x /. float_of_int y)
      | `Mod -> if y = 0 then Null else Int (x mod y))
  | _ -> (
      let x = to_float a and y = to_float b in
      match op with
      | `Add -> Float (x +. y)
      | `Sub -> Float (x -. y)
      | `Mul -> Float (x *. y)
      | `Div -> if y = 0.0 then Null else Float (x /. y)
      | `Mod -> if y = 0.0 then Null else Float (Float.rem x y))

let cast d ty =
  match (d, ty) with
  | Null, _ -> Null
  | d, t when type_of d = Some t -> d
  | Int x, Dtype.Float -> Float (float_of_int x)
  | Float x, Dtype.Int -> Int (int_of_float x)
  | Int x, Dtype.Date -> Date x
  | Date x, Dtype.Int -> Int x
  | Int x, Dtype.String -> String (string_of_int x)
  | Float x, Dtype.String -> String (Printf.sprintf "%g" x)
  | Bool b, Dtype.Int -> Int (if b then 1 else 0)
  | Bool b, Dtype.String -> String (if b then "true" else "false")
  | String s, Dtype.Int -> (
      match int_of_string_opt (String.trim s) with Some i -> Int i | None -> Null)
  | String s, Dtype.Float -> (
      match float_of_string_opt (String.trim s) with Some f -> Float f | None -> Null)
  | Date d, Dtype.String -> String (date_to_string d)
  | _ -> Null

(* Width in bytes of a concrete value (memory accounting in the executor). *)
let byte_width = function
  | Null -> 1
  | Int _ -> 8
  | Float _ -> 8
  | Bool _ -> 1
  | String s -> 16 + String.length s
  | Date _ -> 4
