exception Parse_error of int * string

let error line fmt = Printf.ksprintf (fun s -> raise (Parse_error (line, s))) fmt

let strip s =
  let is_space c = c = ' ' || c = '\t' || c = '\r' in
  let n = String.length s in
  let i = ref 0 in
  while !i < n && is_space s.[!i] do
    incr i
  done;
  let j = ref (n - 1) in
  while !j >= !i && is_space s.[!j] do
    decr j
  done;
  String.sub s !i (!j - !i + 1)

(* "INPUT(G1)" -> ("INPUT", "G1"); "G10 = NAND(G1, G3)" handled separately *)
let parse_call line s =
  match String.index_opt s '(' with
  | None -> error line "expected '(' in %S" s
  | Some lp ->
    if s.[String.length s - 1] <> ')' then error line "expected ')' at end of %S" s;
    let head = strip (String.sub s 0 lp) in
    let args = String.sub s (lp + 1) (String.length s - lp - 2) in
    let args =
      String.split_on_char ',' args |> List.map strip
      |> List.filter (fun a -> a <> "")
    in
    (head, args)

type register = { q : string; d : string }

let parse_with_registers ~sequential ~name text =
  let b = Circuit.Builder.create name in
  let regs = ref [] in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let line =
        match String.index_opt raw '#' with
        | Some h -> strip (String.sub raw 0 h)
        | None -> strip raw
      in
      if line <> "" then begin
        match String.index_opt line '=' with
        | None -> begin
          let head, args = parse_call lineno line in
          match (String.uppercase_ascii head, args) with
          | "INPUT", [ net ] -> ignore (Circuit.Builder.add_input b net)
          | "OUTPUT", [ net ] -> Circuit.Builder.mark_output b net
          | "INPUT", _ | "OUTPUT", _ -> error lineno "%s takes exactly one net" head
          | _ -> error lineno "unknown declaration %S" head
        end
        | Some eq ->
          let lhs = strip (String.sub line 0 eq) in
          let rhs = strip (String.sub line (eq + 1) (String.length line - eq - 1)) in
          let func, args = parse_call lineno rhs in
          if String.uppercase_ascii func = "DFF" then begin
            match (sequential, args) with
            | `Reject, _ ->
              error lineno
                "sequential element DFF not supported here (parse with \
                 ~sequential:`Cut to cut at register boundaries)"
            | `Cut, [ data ] ->
              (* register cut: Q is a fresh launch point, D a capture
                 point; the pairing itself is kept so partitioners can
                 stitch a D-side arrival to its next-cycle Q launch *)
              ignore (Circuit.Builder.add_input b lhs);
              Circuit.Builder.mark_output b data;
              regs := { q = lhs; d = data } :: !regs
            | `Cut, _ -> error lineno "DFF takes exactly one net"
          end
          else
            match Cell_kind.of_string func with
            | None | Some Cell_kind.Pi -> error lineno "unknown gate function %S" func
            | Some kind -> begin
              try ignore (Circuit.Builder.add_gate b lhs kind args)
              with Invalid_argument msg -> error lineno "%s" msg
            end
      end)
    lines;
  (Circuit.Builder.build b, List.rev !regs)

let parse_string ?(sequential = `Reject) ~name text =
  fst (parse_with_registers ~sequential ~name text)

let parse_string_cut ~name text =
  parse_with_registers ~sequential:`Cut ~name text

let parse_file ?sequential path =
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  parse_string ?sequential ~name:(Filename.remove_extension (Filename.basename path)) text

let to_string (c : Circuit.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "# %s\n" c.name);
  Array.iter
    (fun id -> Buffer.add_string buf (Printf.sprintf "INPUT(%s)\n" (Circuit.gate c id).name))
    c.inputs;
  Array.iter
    (fun id -> Buffer.add_string buf (Printf.sprintf "OUTPUT(%s)\n" (Circuit.gate c id).name))
    c.outputs;
  Buffer.add_char buf '\n';
  Array.iter
    (fun (g : Circuit.gate) ->
      if g.kind <> Cell_kind.Pi then begin
        let ins =
          Array.to_list g.fanin |> List.map (fun i -> (Circuit.gate c i).name)
        in
        Buffer.add_string buf
          (Printf.sprintf "%s = %s(%s)\n" g.name (Cell_kind.to_string g.kind)
             (String.concat ", " ins))
      end)
    c.gates;
  Buffer.contents buf

let write_file path c =
  let oc = open_out path in
  output_string oc (to_string c);
  close_out oc
