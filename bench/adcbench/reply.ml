(* Cheap inspection of one response line, without a JSON parse.

   Every envelope the daemon and the router write starts
   [{"id":N,"ok":B,"version":V,...] and, when it carries a payload,
   ends [,"result":<payload>}] (Protocol.ok_response and the stream
   envelopes). The receiver thread classifies thousands of lines a
   second on the generator's single core, so it reads only the header;
   correctness checks compare the payload bytes verbatim. *)

let id_prefix = {|{"id":|}
let result_tag = {|"result":|}

let id line =
  let p = String.length id_prefix in
  if not (String.starts_with ~prefix:id_prefix line) then None
  else
    let rec digits i =
      if i < String.length line && line.[i] >= '0' && line.[i] <= '9' then
        digits (i + 1)
      else i
    in
    let e = digits p in
    if e = p then None else int_of_string_opt (String.sub line p (e - p))

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = if i + m > n then None else if matches i 0 then Some i else go (i + 1) in
  go 0

(* the envelope header: everything before the payload *)
let header line =
  match find_sub line result_tag with
  | Some i -> String.sub line 0 i
  | None -> line

let is_ok line = find_sub (header line) {|"ok":true|} <> None

(* non-final lines of a streaming verb *)
let is_point line = find_sub (header line) {|"stream":"point"|} <> None

let result line =
  match find_sub line result_tag with
  | None -> None
  | Some i ->
    let start = i + String.length result_tag in
    Some (String.sub line start (String.length line - start - 1))
