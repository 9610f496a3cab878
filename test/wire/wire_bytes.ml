(* The wire-bytes golden: the hex encoding of every sample frame and of
   200 seeded random frames, each as version 2, version 2 with a trace
   context, and version 1 where the opcode exists there.  `dune runtest`
   diffs this output against wire_bytes.expected, so a codec change that
   moves one byte on the wire fails the build; a deliberate format change
   is re-pinned with `dune promote`. *)

module Wire = Wb_net.Wire

let hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let print name frame ctx =
  Printf.printf "%s %s\n" name (String.escaped (Format.asprintf "%a" Wire.pp frame));
  Printf.printf "  v2     %s\n" (hex (Wire.encode frame));
  Printf.printf "  v2+ctx %s\n" (hex (Wire.encode ~ctx frame));
  match Wire.encode_v1 frame with
  | s -> Printf.printf "  v1     %s\n" (hex s)
  | exception Invalid_argument _ -> ()

let () =
  let rand = Random.State.make [| 2012 |] in
  List.iteri
    (fun i f -> print (Printf.sprintf "sample %d" i) f (QCheck.Gen.generate1 ~rand Wire_frames.gen_ctx))
    Wire_frames.samples;
  List.iteri
    (fun i (f, ctx) -> print (Printf.sprintf "random %d" i) f ctx)
    (QCheck.Gen.generate ~rand ~n:200 (QCheck.Gen.pair Wire_frames.gen_frame Wire_frames.gen_ctx))
